//! Latency-annotated message channels connecting timing components.
//!
//! Components in the SoC never hold references to each other. Instead, each
//! pair of communicating components shares a [`Link`] (fixed latency, FIFO)
//! or a [`DelayQueue`] (per-message latency, e.g. DRAM responses completing
//! out of order). The owner of the simulation loop moves messages between
//! links each cycle.

use std::collections::{BinaryHeap, VecDeque};

use crate::Cycle;

/// A FIFO channel that delivers each message a fixed number of cycles after
/// it was sent.
///
/// Because sends happen at monotonically non-decreasing cycles and the
/// latency is constant, delivery order equals send order; `Link` therefore
/// uses a plain queue internally.
///
/// # Example
///
/// ```
/// use maple_sim::{Cycle, link::Link};
///
/// let mut l: Link<u32> = Link::new(2);
/// l.send(Cycle(0), 1);
/// l.send(Cycle(0), 2);
/// assert_eq!(l.recv(Cycle(2)), Some(1));
/// assert_eq!(l.recv(Cycle(2)), Some(2));
/// assert_eq!(l.recv(Cycle(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct Link<T> {
    latency: u64,
    queue: VecDeque<(Cycle, T)>,
}

impl<T> Link<T> {
    /// Creates a link whose messages arrive `latency` cycles after sending.
    #[must_use]
    pub fn new(latency: u64) -> Self {
        Link {
            latency,
            queue: VecDeque::new(),
        }
    }

    /// The fixed delivery latency of this link in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Enqueues `msg` at cycle `now`; it becomes receivable at
    /// `now + latency`.
    pub fn send(&mut self, now: Cycle, msg: T) {
        self.queue.push_back((now.plus(self.latency), msg));
    }

    /// Receives the oldest message whose delivery time has arrived, if any.
    pub fn recv(&mut self, now: Cycle) -> Option<T> {
        match self.queue.front() {
            Some((deliver_at, _)) if *deliver_at <= now => self.queue.pop_front().map(|(_, m)| m),
            _ => None,
        }
    }

    /// Peeks at the oldest deliverable message without removing it.
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        match self.queue.front() {
            Some((deliver_at, msg)) if *deliver_at <= now => Some(msg),
            _ => None,
        }
    }

    /// The delivery time of the oldest in-flight message, if any. FIFO
    /// order makes the front message the earliest.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.queue.front().map(|(deliver_at, _)| *deliver_at)
    }

    /// Number of messages in flight (delivered or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no messages are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drains every message that is deliverable at `now`, preserving order.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(m) = self.recv(now) {
            out.push(m);
        }
        out
    }
}

struct Pending<T> {
    deliver_at: Cycle,
    seq: u64,
    msg: T,
}

impl<T: Clone> Clone for Pending<T> {
    fn clone(&self) -> Self {
        Pending {
            deliver_at: self.deliver_at,
            seq: self.seq,
            msg: self.msg.clone(),
        }
    }
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap but we want earliest first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A channel where every message carries its own delivery time.
///
/// Used where completion times vary per message — DRAM accesses contending
/// for bandwidth, page-table walks, MAPLE memory responses arriving out of
/// order. Messages with equal delivery times are delivered in send order.
///
/// # Example
///
/// ```
/// use maple_sim::{Cycle, link::DelayQueue};
///
/// let mut q: DelayQueue<&str> = DelayQueue::new();
/// q.send_at(Cycle(50), "slow");
/// q.send_at(Cycle(10), "fast");
/// assert_eq!(q.recv(Cycle(10)), Some("fast"));
/// assert_eq!(q.recv(Cycle(10)), None);
/// assert_eq!(q.recv(Cycle(50)), Some("slow"));
/// ```
pub struct DelayQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    next_seq: u64,
}

impl<T: Clone> Clone for DelayQueue<T> {
    fn clone(&self) -> Self {
        DelayQueue {
            heap: self.heap.clone(),
            next_seq: self.next_seq,
        }
    }
}

impl<T> std::fmt::Debug for DelayQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayQueue")
            .field("in_flight", &self.heap.len())
            .finish()
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        DelayQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `msg` for delivery at the absolute cycle `deliver_at`.
    pub fn send_at(&mut self, deliver_at: Cycle, msg: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending {
            deliver_at,
            seq,
            msg,
        });
    }

    /// Schedules `msg` for delivery `latency` cycles after `now`.
    pub fn send(&mut self, now: Cycle, latency: u64, msg: T) {
        self.send_at(now.plus(latency), msg);
    }

    /// Receives the earliest message whose delivery time has arrived.
    pub fn recv(&mut self, now: Cycle) -> Option<T> {
        match self.heap.peek() {
            Some(p) if p.deliver_at <= now => self.heap.pop().map(|p| p.msg),
            _ => None,
        }
    }

    /// The delivery time of the earliest in-flight message.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.heap.peek().map(|p| p.deliver_at)
    }

    /// Number of in-flight messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no messages are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains every message deliverable at `now` in delivery-time order.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(m) = self.recv(now) {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_delivers_after_latency() {
        let mut l: Link<u32> = Link::new(5);
        assert_eq!(l.latency(), 5);
        l.send(Cycle(0), 42);
        for c in 0..5 {
            assert_eq!(l.recv(Cycle(c)), None);
        }
        assert_eq!(l.peek(Cycle(5)), Some(&42));
        assert_eq!(l.recv(Cycle(5)), Some(42));
        assert!(l.is_empty());
    }

    #[test]
    fn link_preserves_fifo_order() {
        let mut l: Link<u32> = Link::new(1);
        for i in 0..10 {
            l.send(Cycle(i), i as u32);
        }
        assert_eq!(l.len(), 10);
        let got = l.drain_ready(Cycle(100));
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn link_zero_latency_same_cycle() {
        let mut l: Link<&str> = Link::new(0);
        l.send(Cycle(7), "x");
        assert_eq!(l.recv(Cycle(7)), Some("x"));
    }

    #[test]
    fn delay_queue_orders_by_deadline() {
        let mut q: DelayQueue<u32> = DelayQueue::new();
        q.send_at(Cycle(30), 3);
        q.send_at(Cycle(10), 1);
        q.send_at(Cycle(20), 2);
        assert_eq!(q.next_deadline(), Some(Cycle(10)));
        assert_eq!(q.drain_ready(Cycle(25)), vec![1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.recv(Cycle(29)), None);
        assert_eq!(q.recv(Cycle(30)), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn delay_queue_ties_broken_by_send_order() {
        let mut q: DelayQueue<u32> = DelayQueue::new();
        for i in 0..5 {
            q.send_at(Cycle(10), i);
        }
        assert_eq!(q.drain_ready(Cycle(10)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn delay_queue_relative_send() {
        let mut q: DelayQueue<u8> = DelayQueue::new();
        q.send(Cycle(100), 7, 9);
        assert_eq!(q.recv(Cycle(106)), None);
        assert_eq!(q.recv(Cycle(107)), Some(9));
    }
}
