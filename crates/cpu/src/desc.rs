//! Core-coupled architectural queues for the DeSC baseline.
//!
//! DeSC (Ham et al.) connects a Supply (Access) core and a Compute
//! (Execute) core through architecturally-visible queues with dedicated
//! instructions. A queue supports in-order *slot reservation* so that the
//! Supply core's terminal loads — issued without blocking — deliver their
//! values in program order even when memory responses return out of order
//! (the same reordering trick MAPLE implements with scratchpad slot
//! indices).

use std::collections::VecDeque;

/// Error returned when a produce finds the queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "coupled queue full")
    }
}

impl std::error::Error for QueueFull {}

/// A ticket identifying a reserved slot, to be filled later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTicket {
    queue: u8,
    seq: u64,
}

#[derive(Debug)]
struct DescQueue {
    /// (sequence number, value-if-arrived) in FIFO order.
    slots: VecDeque<(u64, Option<u64>)>,
    next_seq: u64,
    capacity: usize,
}

impl DescQueue {
    fn new(capacity: usize) -> Self {
        DescQueue {
            slots: VecDeque::new(),
            next_seq: 0,
            capacity,
        }
    }

    fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    fn push(&mut self, value: Option<u64>) -> Result<u64, QueueFull> {
        if self.is_full() {
            return Err(QueueFull);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back((seq, value));
        Ok(seq)
    }

    fn fill(&mut self, seq: u64, value: u64) {
        let slot = self
            .slots
            .iter_mut()
            .find(|(s, _)| *s == seq)
            .expect("fill for a slot that was consumed or never reserved");
        assert!(slot.1.is_none(), "slot filled twice");
        slot.1 = Some(value);
    }

    fn pop(&mut self) -> Option<u64> {
        match self.slots.front() {
            Some((_, Some(_))) => self.slots.pop_front().and_then(|(_, v)| v),
            _ => None, // empty, or head still in flight (in-order delivery)
        }
    }
}

/// The set of coupled queues shared by one DeSC Supply/Compute core pair.
///
/// # Example
///
/// ```
/// use maple_cpu::desc::DescQueues;
///
/// let mut q = DescQueues::new(2, 32);
/// q.produce(0, 7).unwrap();
/// let ticket = q.reserve(0).unwrap();
/// assert_eq!(q.consume(0), Some(7));
/// assert_eq!(q.consume(0), None, "head slot still in flight");
/// q.fill(ticket, 99);
/// assert_eq!(q.consume(0), Some(99));
/// ```
#[derive(Debug)]
pub struct DescQueues {
    queues: Vec<DescQueue>,
}

impl DescQueues {
    /// Creates `count` queues of `capacity` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `capacity == 0`.
    #[must_use]
    pub fn new(count: usize, capacity: usize) -> Self {
        assert!(count > 0 && capacity > 0, "need at least one queue slot");
        DescQueues {
            queues: (0..count).map(|_| DescQueue::new(capacity)).collect(),
        }
    }

    fn queue_mut(&mut self, q: u8) -> &mut DescQueue {
        &mut self.queues[usize::from(q)]
    }

    /// Enqueues an immediate value.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the queue has no free slot.
    pub fn produce(&mut self, q: u8, value: u64) -> Result<(), QueueFull> {
        self.queue_mut(q).push(Some(value)).map(|_| ())
    }

    /// Reserves an in-order slot for a terminal load in flight.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the queue has no free slot.
    pub fn reserve(&mut self, q: u8) -> Result<SlotTicket, QueueFull> {
        self.queue_mut(q)
            .push(None)
            .map(|seq| SlotTicket { queue: q, seq })
    }

    /// Delivers the value for a previously reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if the ticket is stale or filled twice (protocol bug).
    pub fn fill(&mut self, ticket: SlotTicket, value: u64) {
        self.queue_mut(ticket.queue).fill(ticket.seq, value);
    }

    /// Pops the head value if it has arrived.
    pub fn consume(&mut self, q: u8) -> Option<u64> {
        self.queue_mut(q).pop()
    }

    /// Whether queue `q` has no free slots.
    #[must_use]
    pub fn is_full(&self, q: u8) -> bool {
        self.queues[usize::from(q)].is_full()
    }

    /// Entries (filled or reserved) in queue `q`.
    #[must_use]
    pub fn len(&self, q: u8) -> usize {
        self.queues[usize::from(q)].slots.len()
    }

    /// Whether every queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.slots.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_plain_produce() {
        let mut q = DescQueues::new(1, 8);
        for v in [1, 2, 3] {
            q.produce(0, v).unwrap();
        }
        assert_eq!(q.consume(0), Some(1));
        assert_eq!(q.consume(0), Some(2));
        assert_eq!(q.consume(0), Some(3));
        assert_eq!(q.consume(0), None);
    }

    #[test]
    fn out_of_order_fills_deliver_in_order() {
        let mut q = DescQueues::new(1, 8);
        let t1 = q.reserve(0).unwrap();
        let t2 = q.reserve(0).unwrap();
        // Memory returns the second load first.
        q.fill(t2, 22);
        assert_eq!(q.consume(0), None, "head not ready yet");
        q.fill(t1, 11);
        assert_eq!(q.consume(0), Some(11));
        assert_eq!(q.consume(0), Some(22));
    }

    #[test]
    fn capacity_enforced() {
        let mut q = DescQueues::new(1, 2);
        q.produce(0, 1).unwrap();
        let _ = q.reserve(0).unwrap();
        assert!(q.is_full(0));
        assert_eq!(q.produce(0, 3), Err(QueueFull));
        assert_eq!(q.reserve(0).unwrap_err().to_string(), "coupled queue full");
        // Consuming frees a slot.
        assert_eq!(q.consume(0), Some(1));
        assert!(q.produce(0, 3).is_ok());
    }

    #[test]
    fn queues_are_independent() {
        let mut q = DescQueues::new(2, 4);
        q.produce(0, 5).unwrap();
        assert_eq!(q.consume(1), None);
        assert_eq!(q.consume(0), Some(5));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let mut q = DescQueues::new(1, 4);
        let t = q.reserve(0).unwrap();
        q.fill(t, 1);
        q.fill(t, 2);
    }

    #[test]
    fn interleaved_produce_and_reserve_keep_order() {
        let mut q = DescQueues::new(1, 8);
        q.produce(0, 1).unwrap();
        let t = q.reserve(0).unwrap();
        q.produce(0, 3).unwrap();
        q.fill(t, 2);
        assert_eq!(q.consume(0), Some(1));
        assert_eq!(q.consume(0), Some(2));
        assert_eq!(q.consume(0), Some(3));
    }
}
