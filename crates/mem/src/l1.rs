//! Private L1 data cache: write-through, no-write-allocate, non-blocking.
//!
//! Matches the Ariane/OpenPiton L1D of the FPGA prototype (Table 2): 8 KB
//! 4-way, 2-cycle hits, write-through with a small store buffer, and a
//! handful of MSHRs for outstanding line fills. MMIO accesses (the MAPLE
//! API) pass through uncached, as do volatile loads and atomics.

use std::collections::VecDeque;

use maple_sim::hash::FxHashMap;
use maple_sim::link::DelayQueue;
use maple_sim::stats::{Counter, Histogram};
use maple_sim::Cycle;

use crate::cache::{CacheArray, CacheGeometry};
use crate::msg::{MemReq, MemReqKind, MemResp, ServedBy};
use crate::phys::{AmoKind, PAddr, PhysMem, WriteStage};

/// L1 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes (paper: 8 KB).
    pub size_bytes: u64,
    /// Associativity (paper: 4).
    pub ways: usize,
    /// Hit latency in cycles (paper: 2).
    pub hit_latency: u64,
    /// Outstanding line-fill MSHRs.
    pub mshrs: usize,
    /// Store-buffer depth for write-through traffic.
    pub store_buffer: usize,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config {
            size_bytes: 8 * 1024,
            ways: 4,
            hit_latency: 2,
            mshrs: 8,
            store_buffer: 8,
        }
    }
}

/// An operation a core submits to its L1 port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreOp {
    /// Cacheable load of `size` bytes.
    Load {
        /// Access width (1, 2, 4 or 8).
        size: u8,
    },
    /// Uncached load served at the L2 coherence point (shared flags,
    /// software queue indices).
    LoadVolatile {
        /// Access width.
        size: u8,
    },
    /// Store of `size` bytes; completes when the store buffer accepts it.
    Store {
        /// Access width.
        size: u8,
        /// Store data.
        data: u64,
    },
    /// Atomic executed at the L2; the response carries the old value.
    Amo {
        /// Operation.
        kind: AmoKind,
        /// Width (4 or 8).
        size: u8,
        /// Operand.
        operand: u64,
    },
    /// Software prefetch into this L1 (fire-and-forget).
    Prefetch,
    /// Uncached MMIO load (e.g. MAPLE `CONSUME`).
    MmioLoad {
        /// Access width.
        size: u8,
    },
    /// Uncached MMIO store (e.g. MAPLE `PRODUCE`); acknowledged by the
    /// device before the core retires it.
    MmioStore {
        /// Access width.
        size: u8,
        /// Store data.
        data: u64,
    },
}

impl CoreOp {
    /// Whether the core should block waiting for a response.
    #[must_use]
    pub fn expects_response(self) -> bool {
        !matches!(self, CoreOp::Store { .. } | CoreOp::Prefetch)
    }
}

/// A request from the core to its L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreReq {
    /// Core-chosen ID echoed in the [`CoreResp`].
    pub id: u64,
    /// Physical address (already translated by the core's TLB).
    pub addr: PAddr,
    /// The operation.
    pub op: CoreOp,
}

/// A response from the L1 back to the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreResp {
    /// Echo of [`CoreReq::id`].
    pub id: u64,
    /// Load data / AMO old value / zero for acks.
    pub data: u64,
    /// Which level served the access (observability only; L1 hits report
    /// [`ServedBy::L1`], everything else propagates the memory response).
    pub served_by: ServedBy,
}

/// Why the L1 refused a request this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Reject {
    /// All MSHRs are in use.
    MshrFull,
    /// The store buffer is full.
    StoreBufferFull,
}

impl std::fmt::Display for L1Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L1Reject::MshrFull => write!(f, "L1 MSHRs exhausted"),
            L1Reject::StoreBufferFull => write!(f, "L1 store buffer full"),
        }
    }
}

/// L1 statistics, the source of Figures 10 and 11.
#[derive(Debug, Clone, Default)]
pub struct L1Stats {
    /// Cacheable loads issued.
    pub loads: Counter,
    /// Cacheable load hits.
    pub load_hits: Counter,
    /// Stores accepted.
    pub stores: Counter,
    /// Prefetches issued to memory.
    pub prefetches: Counter,
    /// Lines evicted by fills (prefetch thrashing shows up here).
    pub evictions: Counter,
    /// Latency from acceptance to response for loads (all flavours).
    pub load_latency: Histogram,
    /// Responses for unknown transactions, discarded. Nonzero only when
    /// the fault plane's watchdogs re-issue requests and both the original
    /// and the retried response eventually arrive.
    pub stale_responses: Counter,
}

#[derive(Debug)]
enum Origin {
    /// A demand line fill with the core requests waiting on it.
    Fill {
        line: PAddr,
        waiters: Vec<(Cycle, CoreReq)>,
    },
    /// A prefetch fill: install the line, nobody waits.
    PrefetchFill { line: PAddr },
    /// A forwarded uncached request (volatile load, AMO, MMIO).
    Forwarded { accepted: Cycle, req: CoreReq },
}

/// The L1 data cache. See the module docs for the modelled behaviour.
#[derive(Debug)]
pub struct L1Cache {
    cfg: L1Config,
    tags: CacheArray,
    next_txid: u64,
    inflight: FxHashMap<u64, Origin>,
    /// Demand fills in flight, by line base, for merging.
    fills_by_line: FxHashMap<PAddr, u64>,
    store_buffer: VecDeque<MemReq>,
    out: VecDeque<MemReq>,
    core_resp: DelayQueue<CoreResp>,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty L1.
    #[must_use]
    pub fn new(cfg: L1Config) -> Self {
        L1Cache {
            cfg,
            tags: CacheArray::new(CacheGeometry::new(cfg.size_bytes, cfg.ways)),
            next_txid: 0,
            inflight: FxHashMap::default(),
            fills_by_line: FxHashMap::default(),
            store_buffer: VecDeque::new(),
            out: VecDeque::new(),
            core_resp: DelayQueue::new(),
            stats: L1Stats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> L1Config {
        self.cfg
    }

    fn txid(&mut self) -> u64 {
        let id = self.next_txid;
        self.next_txid += 1;
        id
    }

    fn demand_fills(&self) -> usize {
        self.fills_by_line.len()
    }

    /// Submits a core request.
    ///
    /// Memory is read-only here; the functional effect of a plain store is
    /// pushed onto `stage` and applied by the simulation hub in
    /// deterministic core order at the end of the cycle (see
    /// [`WriteStage`]).
    ///
    /// # Errors
    ///
    /// Returns an [`L1Reject`] when a structural resource (MSHR, store
    /// buffer) is exhausted; the core should retry next cycle.
    pub fn access(
        &mut self,
        now: Cycle,
        req: CoreReq,
        mem: &PhysMem,
        stage: &mut WriteStage,
    ) -> Result<(), L1Reject> {
        match req.op {
            CoreOp::Load { size } => {
                self.stats.loads.inc();
                if self.tags.access(req.addr) {
                    self.stats.load_hits.inc();
                    let data = mem.read_uint(req.addr, size);
                    self.stats.load_latency.record(self.cfg.hit_latency);
                    self.core_resp.send(
                        now,
                        self.cfg.hit_latency,
                        CoreResp {
                            id: req.id,
                            data,
                            served_by: ServedBy::L1,
                        },
                    );
                    return Ok(());
                }
                let line = req.addr.line_base();
                if let Some(&txid) = self.fills_by_line.get(&line) {
                    // Merge into the existing fill; an in-flight prefetch
                    // is upgraded to a demand fill.
                    match self.inflight.get_mut(&txid) {
                        Some(Origin::Fill { waiters, .. }) => {
                            waiters.push((now, req));
                            return Ok(());
                        }
                        Some(origin @ Origin::PrefetchFill { .. }) => {
                            *origin = Origin::Fill {
                                line,
                                waiters: vec![(now, req)],
                            };
                            return Ok(());
                        }
                        _ => unreachable!("fills_by_line points at a live fill"),
                    }
                }
                if self.demand_fills() >= self.cfg.mshrs {
                    self.stats.loads.add(0); // no-op, placeholder for symmetry
                    return Err(L1Reject::MshrFull);
                }
                let txid = self.txid();
                self.fills_by_line.insert(line, txid);
                self.inflight.insert(
                    txid,
                    Origin::Fill {
                        line,
                        waiters: vec![(now, req)],
                    },
                );
                self.out.push_back(MemReq {
                    id: txid,
                    addr: line,
                    kind: MemReqKind::ReadLine,
                    reply_to: maple_noc::Coord::default(), // set by the tile
                });
                Ok(())
            }
            CoreOp::Prefetch => {
                if self.tags.probe(req.addr) {
                    return Ok(()); // already resident: drop
                }
                let line = req.addr.line_base();
                if self.fills_by_line.contains_key(&line) {
                    return Ok(()); // fill already in flight
                }
                if self.demand_fills() >= self.cfg.mshrs {
                    return Err(L1Reject::MshrFull);
                }
                self.stats.prefetches.inc();
                let txid = self.txid();
                self.fills_by_line.insert(line, txid);
                self.inflight.insert(txid, Origin::PrefetchFill { line });
                self.out.push_back(MemReq {
                    id: txid,
                    addr: line,
                    kind: MemReqKind::ReadLine,
                    reply_to: maple_noc::Coord::default(),
                });
                Ok(())
            }
            CoreOp::Store { size, data } => {
                if self.store_buffer.len() >= self.cfg.store_buffer {
                    return Err(L1Reject::StoreBufferFull);
                }
                self.stats.stores.inc();
                // Functional write is staged at acceptance and applied at
                // end of cycle; the line, if resident, stays resident
                // (write-through, no allocate).
                stage.push(req.addr, size, data);
                if self.tags.probe(req.addr) {
                    self.tags.access(req.addr);
                }
                let txid = self.txid();
                self.store_buffer.push_back(MemReq {
                    id: txid,
                    addr: req.addr,
                    kind: MemReqKind::Write {
                        size,
                        data,
                        ack: false,
                    },
                    reply_to: maple_noc::Coord::default(),
                });
                Ok(())
            }
            CoreOp::LoadVolatile { size } => {
                self.stats.loads.inc();
                self.forward(
                    now,
                    req,
                    MemReqKind::ReadWord { size },
                );
                Ok(())
            }
            CoreOp::Amo {
                kind,
                size,
                operand,
            } => {
                self.forward(now, req, MemReqKind::Amo { kind, size, operand });
                Ok(())
            }
            CoreOp::MmioLoad { size } => {
                self.forward(now, req, MemReqKind::ReadWord { size });
                Ok(())
            }
            CoreOp::MmioStore { size, data } => {
                self.forward(
                    now,
                    req,
                    MemReqKind::Write {
                        size,
                        data,
                        ack: true,
                    },
                );
                Ok(())
            }
        }
    }

    fn forward(&mut self, now: Cycle, req: CoreReq, kind: MemReqKind) {
        let txid = self.txid();
        self.inflight.insert(
            txid,
            Origin::Forwarded {
                accepted: now,
                req,
            },
        );
        self.out.push_back(MemReq {
            id: txid,
            addr: req.addr,
            kind,
            reply_to: maple_noc::Coord::default(),
        });
    }

    /// Delivers a memory-system response to this L1.
    ///
    /// A response for an unknown transaction (possible when a watchdog
    /// re-issued the request and both copies were answered) is counted in
    /// [`L1Stats::stale_responses`] and discarded.
    pub fn on_mem_resp(&mut self, now: Cycle, resp: MemResp, mem: &PhysMem) {
        let Some(origin) = self.inflight.remove(&resp.id) else {
            self.stats.stale_responses.inc();
            return;
        };
        match origin {
            Origin::Fill { line, waiters } => {
                self.fills_by_line.remove(&line);
                if self.tags.fill(line).is_some() {
                    self.stats.evictions.inc();
                }
                for (accepted, w) in waiters {
                    let size = match w.op {
                        CoreOp::Load { size } => size,
                        _ => unreachable!("only loads wait on fills"),
                    };
                    let data = mem.read_uint(w.addr, size);
                    let latency = now.since(accepted) + self.cfg.hit_latency;
                    self.stats.load_latency.record(latency);
                    self.core_resp.send(
                        now,
                        self.cfg.hit_latency,
                        CoreResp {
                            id: w.id,
                            data,
                            served_by: resp.served_by,
                        },
                    );
                }
            }
            Origin::PrefetchFill { line } => {
                self.fills_by_line.remove(&line);
                if self.tags.fill(line).is_some() {
                    self.stats.evictions.inc();
                }
            }
            Origin::Forwarded { accepted, req } => {
                if matches!(
                    req.op,
                    CoreOp::Load { .. }
                        | CoreOp::LoadVolatile { .. }
                        | CoreOp::MmioLoad { .. }
                ) {
                    self.stats
                        .load_latency
                        .record(now.since(accepted) + self.cfg.hit_latency);
                }
                self.core_resp.send(
                    now,
                    self.cfg.hit_latency,
                    CoreResp {
                        id: req.id,
                        data: resp.data,
                        served_by: resp.served_by,
                    },
                );
            }
        }
    }

    /// Pops the next request to inject into the NoC (one per call; the tile
    /// paces injection). Store-buffer traffic drains behind demand misses.
    pub fn pop_outgoing(&mut self) -> Option<MemReq> {
        if let Some(r) = self.out.pop_front() {
            return Some(r);
        }
        self.store_buffer.pop_front()
    }

    /// Pops a response that is ready for the core.
    pub fn pop_core_resp(&mut self, now: Cycle) -> Option<CoreResp> {
        self.core_resp.recv(now)
    }

    /// Earliest cycle at or after `now` at which this L1 could act, for
    /// the event-horizon scheduler.
    ///
    /// Pending outgoing traffic (demand misses or buffered stores) pins the
    /// horizon to `now` — the host tile paces [`L1Cache::pop_outgoing`]
    /// once per stepped cycle. Otherwise the earliest staged core response
    /// bounds it. In-flight fills need no term of their own: their memory
    /// responses arrive through the NoC/L2, which carry their own horizons.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = maple_sim::Horizon::IDLE;
        if !self.out.is_empty() || !self.store_buffer.is_empty() {
            h.at(now);
        }
        h.observe(self.core_resp.next_deadline().map(|d| d.max(now)));
        h.earliest()
    }

    /// Whether any transaction is outstanding.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
            && self.out.is_empty()
            && self.store_buffer.is_empty()
            && self.core_resp.is_empty()
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Probe without side effects (for tests and debug).
    #[must_use]
    pub fn contains_line(&self, addr: PAddr) -> bool {
        self.tags.probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> (L1Cache, PhysMem, WriteStage) {
        (
            L1Cache::new(L1Config::default()),
            PhysMem::new(),
            WriteStage::new(),
        )
    }

    fn load(id: u64, addr: u64) -> CoreReq {
        CoreReq {
            id,
            addr: PAddr(addr),
            op: CoreOp::Load { size: 8 },
        }
    }

    #[test]
    fn miss_goes_out_hit_after_fill() {
        let (mut c, mut mem, mut st) = l1();
        mem.write_u64(PAddr(0x1000), 77);
        c.access(Cycle(0), load(1, 0x1000), &mem, &mut st).unwrap();
        let req = c.pop_outgoing().expect("miss generates a fill");
        assert_eq!(req.kind, MemReqKind::ReadLine);
        assert_eq!(req.addr, PAddr(0x1000));
        // Response arrives later.
        c.on_mem_resp(Cycle(100), MemResp { id: req.id, data: 0, served_by: ServedBy::Dram }, &mem);
        assert_eq!(c.pop_core_resp(Cycle(101)), None);
        assert_eq!(
            c.pop_core_resp(Cycle(102)),
            Some(CoreResp { id: 1, data: 77, served_by: ServedBy::Dram })
        );
        // Second access to the same line now hits with hit latency.
        c.access(Cycle(200), load(2, 0x1008), &mem, &mut st).unwrap();
        assert!(c.pop_outgoing().is_none(), "hit: no traffic");
        assert_eq!(c.pop_core_resp(Cycle(202)), Some(CoreResp { id: 2, data: 0, served_by: ServedBy::L1 }));
        assert_eq!(c.stats().loads.get(), 2);
        assert_eq!(c.stats().load_hits.get(), 1);
    }

    #[test]
    fn mshr_merging_single_fill() {
        let (mut c, mut mem, mut st) = l1();
        mem.write_u64(PAddr(0x2000), 5);
        mem.write_u64(PAddr(0x2008), 6);
        c.access(Cycle(0), load(1, 0x2000), &mem, &mut st).unwrap();
        c.access(Cycle(0), load(2, 0x2008), &mem, &mut st).unwrap();
        let req = c.pop_outgoing().unwrap();
        assert!(c.pop_outgoing().is_none(), "second load merged into MSHR");
        c.on_mem_resp(Cycle(50), MemResp { id: req.id, data: 0, served_by: ServedBy::Dram }, &mem);
        let r1 = c.pop_core_resp(Cycle(52)).unwrap();
        let r2 = c.pop_core_resp(Cycle(52)).unwrap();
        assert_eq!((r1.data, r2.data), (5, 6));
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let cfg = L1Config {
            mshrs: 2,
            ..L1Config::default()
        };
        let mut c = L1Cache::new(cfg);
        let mem = PhysMem::new();
        let mut st = WriteStage::new();
        c.access(Cycle(0), load(1, 0x0000), &mem, &mut st).unwrap();
        c.access(Cycle(0), load(2, 0x1000), &mem, &mut st).unwrap();
        let err = c.access(Cycle(0), load(3, 0x2000), &mem, &mut st).unwrap_err();
        assert_eq!(err, L1Reject::MshrFull);
        assert!(err.to_string().contains("MSHR"));
    }

    #[test]
    fn store_writes_through() {
        let (mut c, mut mem, mut stage) = l1();
        let st = CoreReq {
            id: 9,
            addr: PAddr(0x3000),
            op: CoreOp::Store { size: 8, data: 42 },
        };
        c.access(Cycle(0), st, &mem, &mut stage).unwrap();
        assert_eq!(mem.read_u64(PAddr(0x3000)), 0, "staged, not yet applied");
        stage.apply(&mut mem);
        assert_eq!(mem.read_u64(PAddr(0x3000)), 42, "functional write at end of cycle");
        assert!(stage.is_empty(), "apply drains the stage");
        let out = c.pop_outgoing().unwrap();
        assert!(matches!(
            out.kind,
            MemReqKind::Write {
                size: 8,
                data: 42,
                ack: false
            }
        ));
        assert!(!out.expects_response());
        assert_eq!(c.stats().stores.get(), 1);
    }

    #[test]
    fn store_buffer_fills_up() {
        let cfg = L1Config {
            store_buffer: 2,
            ..L1Config::default()
        };
        let mut c = L1Cache::new(cfg);
        let mem = PhysMem::new();
        let mut st = WriteStage::new();
        for i in 0..2 {
            c.access(
                Cycle(0),
                CoreReq {
                    id: i,
                    addr: PAddr(0x100 + i * 8),
                    op: CoreOp::Store { size: 8, data: i },
                },
                &mem,
                &mut st,
            )
            .unwrap();
        }
        assert_eq!(st.len(), 2, "both stores staged");
        let err = c
            .access(
                Cycle(0),
                CoreReq {
                    id: 3,
                    addr: PAddr(0x200),
                    op: CoreOp::Store { size: 8, data: 3 },
                },
                &mem,
                &mut st,
            )
            .unwrap_err();
        assert_eq!(err, L1Reject::StoreBufferFull);
    }

    #[test]
    fn volatile_load_bypasses_tags() {
        let (mut c, mut mem, mut st) = l1();
        // Fill the line first via a demand load.
        c.access(Cycle(0), load(1, 0x4000), &mem, &mut st).unwrap();
        let fill = c.pop_outgoing().unwrap();
        c.on_mem_resp(Cycle(10), MemResp { id: fill.id, data: 0, served_by: ServedBy::Dram }, &mem);
        let _ = c.pop_core_resp(Cycle(12));
        // Volatile load to the same (resident) line still goes out.
        let v = CoreReq {
            id: 2,
            addr: PAddr(0x4000),
            op: CoreOp::LoadVolatile { size: 8 },
        };
        c.access(Cycle(20), v, &mem, &mut st).unwrap();
        let fwd = c.pop_outgoing().expect("volatile bypasses the cache");
        assert_eq!(fwd.kind, MemReqKind::ReadWord { size: 8 });
        mem.write_u64(PAddr(0x4000), 1234);
        c.on_mem_resp(Cycle(60), MemResp { id: fwd.id, data: 1234, served_by: ServedBy::Dram }, &mem);
        assert_eq!(
            c.pop_core_resp(Cycle(62)),
            Some(CoreResp { id: 2, data: 1234, served_by: ServedBy::Dram })
        );
    }

    #[test]
    fn amo_and_mmio_forwarded() {
        let (mut c, mem, mut st) = l1();
        c.access(
            Cycle(0),
            CoreReq {
                id: 1,
                addr: PAddr(0x100),
                op: CoreOp::Amo {
                    kind: AmoKind::Add,
                    size: 8,
                    operand: 1,
                },
            },
            &mem,
            &mut st,
        )
        .unwrap();
        assert!(matches!(
            c.pop_outgoing().unwrap().kind,
            MemReqKind::Amo { .. }
        ));
        c.access(
            Cycle(0),
            CoreReq {
                id: 2,
                addr: PAddr(0xf000_0000),
                op: CoreOp::MmioStore { size: 8, data: 5 },
            },
            &mem,
            &mut st,
        )
        .unwrap();
        let ms = c.pop_outgoing().unwrap();
        assert!(ms.expects_response(), "MMIO store wants an ack");
        assert_eq!(mem.read_u64(PAddr(0xf000_0000)), 0, "MMIO is not memory");
    }

    #[test]
    fn prefetch_installs_line_without_response() {
        let (mut c, mem, mut st) = l1();
        c.access(
            Cycle(0),
            CoreReq {
                id: 1,
                addr: PAddr(0x5000),
                op: CoreOp::Prefetch,
            },
            &mem,
            &mut st,
        )
        .unwrap();
        let req = c.pop_outgoing().unwrap();
        assert_eq!(req.kind, MemReqKind::ReadLine);
        c.on_mem_resp(Cycle(30), MemResp { id: req.id, data: 0, served_by: ServedBy::Dram }, &mem);
        assert_eq!(c.pop_core_resp(Cycle(40)), None, "prefetch is silent");
        assert!(c.contains_line(PAddr(0x5000)));
        assert_eq!(c.stats().prefetches.get(), 1);
        // Duplicate prefetch to a resident line is dropped.
        c.access(
            Cycle(50),
            CoreReq {
                id: 2,
                addr: PAddr(0x5000),
                op: CoreOp::Prefetch,
            },
            &mem,
            &mut st,
        )
        .unwrap();
        assert!(c.pop_outgoing().is_none());
    }

    #[test]
    fn load_latency_histogram_tracks_misses() {
        let (mut c, mem, mut st) = l1();
        c.access(Cycle(0), load(1, 0x6000), &mem, &mut st).unwrap();
        let req = c.pop_outgoing().unwrap();
        c.on_mem_resp(Cycle(330), MemResp { id: req.id, data: 0, served_by: ServedBy::Dram }, &mem);
        let _ = c.pop_core_resp(Cycle(332));
        assert_eq!(c.stats().load_latency.max(), Some(332));
    }

    #[test]
    fn idle_tracking() {
        let (mut c, mem, mut st) = l1();
        assert!(c.is_idle());
        c.access(Cycle(0), load(1, 0x0), &mem, &mut st).unwrap();
        assert!(!c.is_idle());
        let req = c.pop_outgoing().unwrap();
        c.on_mem_resp(Cycle(5), MemResp { id: req.id, data: 0, served_by: ServedBy::Dram }, &mem);
        let _ = c.pop_core_resp(Cycle(7)).unwrap();
        assert!(c.is_idle());
    }
}
