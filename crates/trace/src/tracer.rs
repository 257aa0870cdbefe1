//! The ring-buffered event recorder and its cheap [`Tracer`] handle.
//!
//! A [`Tracer`] is what simulation components hold. It is either
//! *disabled* — the default, a `None` under the hood, making every emit a
//! single branch with the event constructor never run — or *enabled*, a
//! shared handle onto one [`TraceBuffer`] ring.
//!
//! A [`System`](../../maple_soc/system/struct.System.html) gives each
//! independently-stepped component (every core, every engine, plus one
//! ring for the hub-owned uncore) its *own* ring and merges them into one
//! canonical stream with [`merge_rings`]. Per-component rings give the
//! stream one fixed merge order, independent of the order in which a
//! stepper happens to tick components within a cycle, which is what keeps
//! the exported stream byte-identical across the dense and skipping
//! steppers. The handle is `Send + Sync` (an `Arc<Mutex>` under the hood)
//! because whole systems run on `par_map`'s worker threads;
//! uncontended lock cost is a few nanoseconds per emitted record and zero
//! when disabled.
//!
//! The ring bounds memory: once `capacity` records are held, the oldest
//! record is dropped per push and counted, so long runs keep the *tail* of
//! their history (the part that usually matters for a hang or a slowdown)
//! at a fixed cost.

use std::sync::{Arc, Mutex};

use maple_sim::Cycle;

use crate::event::TraceEvent;

/// Sizing for the trace ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum records held; beyond this the oldest are dropped (and
    /// counted in [`Tracer::dropped`]).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // 1 Mi records ≈ 40 MB; enough for every example and experiment
        // bin while still bounding an unbounded run.
        TraceConfig { capacity: 1 << 20 }
    }
}

/// One captured event: the cycle it happened on plus the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Emission cycle.
    pub ts: Cycle,
    /// The event.
    pub event: TraceEvent,
}

/// The shared ring of captured records.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    records: std::collections::VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceBuffer {
    fn new(cfg: TraceConfig) -> Self {
        TraceBuffer {
            capacity: cfg.capacity.max(1),
            records: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.records.len() >= self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }
}

/// A cheaply cloneable handle to the (optional) trace buffer.
///
/// Components store one of these and call [`Tracer::emit`] at
/// interesting moments; when the handle is disabled the closure is never
/// invoked, so the instrumented hot paths cost one `Option` discriminant
/// test — verified cycle-identical by the soc `trace_identity` test.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buf: Option<Arc<Mutex<TraceBuffer>>>,
}

impl Tracer {
    /// The no-op handle (what every component starts with).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { buf: None }
    }

    /// Creates an enabled handle backed by a fresh ring buffer.
    #[must_use]
    pub fn enabled(cfg: TraceConfig) -> Self {
        Tracer {
            buf: Some(Arc::new(Mutex::new(TraceBuffer::new(cfg)))),
        }
    }

    /// Whether events are being captured.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records the event built by `f` at cycle `ts`. When disabled, `f`
    /// is not called.
    #[inline]
    pub fn emit(&self, ts: Cycle, f: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.lock()
                .expect("trace ring poisoned")
                .push(TraceRecord { ts, event: f() });
        }
    }

    /// Snapshot of every record currently held, oldest first.
    ///
    /// Disabled handles return an empty vector.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        match &self.buf {
            Some(buf) => buf
                .lock()
                .expect("trace ring poisoned")
                .records
                .iter()
                .copied()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Records evicted by the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.buf
            .as_ref()
            .map_or(0, |b| b.lock().expect("trace ring poisoned").dropped)
    }
}

/// Merges per-component rings into one canonical stream bounded by
/// `capacity`, returning the merged records and the total drop count.
///
/// `rings` must be passed in canonical rank order (the `System` uses
/// cores by index, then engines by index, then the hub ring); records
/// with equal timestamps keep that rank order, and records within one
/// ring keep their emission order (the sort is stable). The result is
/// then truncated to the *last* `capacity` records, reproducing the
/// single-ring tail semantics: each per-component ring keeps the tail of
/// its own stream, so the union of rings always covers the last
/// `capacity` records of the merged stream.
///
/// The returned drop count is `total emitted - records kept`, i.e. the
/// same number a single global ring of `capacity` records would report.
#[must_use]
pub fn merge_rings(rings: &[&Tracer], capacity: usize) -> (Vec<TraceRecord>, u64) {
    let mut merged: Vec<(Cycle, usize, TraceRecord)> = Vec::new();
    let mut emitted: u64 = 0;
    for (rank, ring) in rings.iter().enumerate() {
        let records = ring.records();
        emitted += records.len() as u64 + ring.dropped();
        merged.extend(records.into_iter().map(|r| (r.ts, rank, r)));
    }
    merged.sort_by_key(|&(ts, rank, _)| (ts, rank));
    let capacity = capacity.max(1);
    if merged.len() > capacity {
        merged.drain(..merged.len() - capacity);
    }
    let records: Vec<TraceRecord> = merged.into_iter().map(|(_, _, r)| r).collect();
    let dropped = emitted - records.len() as u64;
    (records, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultSite;

    fn ev(core: usize) -> TraceEvent {
        TraceEvent::CoreStallEnd {
            core,
            cause: crate::event::StallCause::L1Miss,
        }
    }

    #[test]
    fn disabled_never_runs_the_constructor() {
        let t = Tracer::disabled();
        t.emit(Cycle(0), || {
            panic!("constructor must not run when disabled")
        });
        assert!(!t.is_enabled());
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled(TraceConfig::default());
        let t2 = t.clone();
        t.emit(Cycle(1), || ev(0));
        t2.emit(Cycle(2), || ev(1));
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, Cycle(1));
        assert_eq!(recs[1].event, ev(1));
    }

    #[test]
    fn merge_preserves_rank_and_ring_order() {
        let a = Tracer::enabled(TraceConfig { capacity: 16 });
        let b = Tracer::enabled(TraceConfig { capacity: 16 });
        // Interleaved cycles; equal timestamps must come out in rank
        // order (a before b) with each ring's internal order intact.
        a.emit(Cycle(1), || ev(0));
        b.emit(Cycle(1), || ev(1));
        a.emit(Cycle(2), || ev(2));
        b.emit(Cycle(0), || ev(3));
        let (recs, dropped) = merge_rings(&[&a, &b], 16);
        assert_eq!(dropped, 0);
        let got: Vec<(u64, TraceEvent)> = recs.iter().map(|r| (r.ts.0, r.event)).collect();
        assert_eq!(
            got,
            vec![(0, ev(3)), (1, ev(0)), (1, ev(1)), (2, ev(2))],
            "sorted by cycle, rank breaks ties"
        );
    }

    #[test]
    fn merge_truncates_to_tail_and_counts_drops() {
        let a = Tracer::enabled(TraceConfig { capacity: 2 });
        let b = Tracer::enabled(TraceConfig { capacity: 2 });
        for i in 0..5u64 {
            a.emit(Cycle(i), || ev(0));
        }
        b.emit(Cycle(10), || ev(1));
        // 6 records emitted in total; a merged capacity of 2 keeps the
        // last 2 by cycle and reports the other 4 as dropped — exactly
        // what a single 2-deep global ring would have done.
        let (recs, dropped) = merge_rings(&[&a, &b], 2);
        assert_eq!(recs.len(), 2);
        assert_eq!(dropped, 4);
        assert_eq!(recs[0].ts, Cycle(4));
        assert_eq!(recs[1].ts, Cycle(10));
    }

    #[test]
    fn tracer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer>();
    }

    #[test]
    fn ring_drops_oldest() {
        let t = Tracer::enabled(TraceConfig { capacity: 2 });
        for i in 0..5u64 {
            t.emit(Cycle(i), || TraceEvent::FaultInjected {
                site: FaultSite::NocDrop,
            });
        }
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, Cycle(3), "oldest evicted first");
        assert_eq!(t.dropped(), 3);
    }
}
