//! Scratchpad-backed circular FIFO queues with in-order slot reservation.
//!
//! MAPLE's queues (Figure 6) are circular FIFOs carved out of a shared
//! scratchpad. A pointer-produce *reserves* the next slot and uses its index
//! as the memory transaction ID, so responses arriving out of order are
//! written back into program order — the mechanism that gives MAPLE its
//! memory-level parallelism without a core-side ROB.

use std::collections::VecDeque;

use maple_sim::stats::Counter;

/// Why a queue operation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// All slots are in use (produce side must buffer — never overflow).
    Full,
    /// The requested configuration exceeds the scratchpad budget.
    ScratchpadExceeded,
    /// Entry size must be 4 or 8 bytes.
    BadEntrySize,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Full => write!(f, "queue full"),
            QueueError::ScratchpadExceeded => write!(f, "scratchpad budget exceeded"),
            QueueError::BadEntrySize => write!(f, "entry size must be 4 or 8 bytes"),
        }
    }
}

impl std::error::Error for QueueError {}

/// A slot reservation ticket: the transaction ID for the in-flight fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub u64);

/// One circular FIFO.
#[derive(Debug, Clone)]
pub struct FifoQueue {
    /// (sequence, value-if-arrived) in FIFO order; sequences are
    /// contiguous (reservations append `next_seq`, pops take the head).
    slots: VecDeque<(u64, Option<u64>)>,
    next_seq: u64,
    entries: usize,
    entry_bytes: u8,
    /// Entries ever produced (reserved or written).
    pub produced: Counter,
    /// Entries ever consumed.
    pub consumed: Counter,
}

impl FifoQueue {
    /// Creates a standalone queue of `entries` × `entry_bytes` (the
    /// controller builds queues against a scratchpad budget; this
    /// constructor serves tests and tooling).
    #[must_use]
    pub fn new(entries: usize, entry_bytes: u8) -> Self {
        FifoQueue {
            slots: VecDeque::new(),
            next_seq: 0,
            entries,
            entry_bytes,
            produced: Counter::new(),
            consumed: Counter::new(),
        }
    }

    /// Capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries
    }

    /// Entry size in bytes.
    #[must_use]
    pub fn entry_bytes(&self) -> u8 {
        self.entry_bytes
    }

    /// Occupied slots (filled or reserved).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is free.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.entries
    }

    /// Whether the queue holds nothing (not even reservations).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Enqueues an immediate value.
    ///
    /// # Errors
    ///
    /// [`QueueError::Full`] when no slot is free.
    pub fn push(&mut self, value: u64) -> Result<(), QueueError> {
        self.reserve().map(|s| self.fill(s, value))?;
        Ok(())
    }

    /// Reserves the next slot for an in-flight fetch; the returned [`Slot`]
    /// doubles as the memory transaction ID.
    ///
    /// # Errors
    ///
    /// [`QueueError::Full`] when no slot is free.
    pub fn reserve(&mut self) -> Result<Slot, QueueError> {
        if self.is_full() {
            return Err(QueueError::Full);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back((seq, None));
        self.produced.inc();
        Ok(Slot(seq))
    }

    /// Writes the fetched data into its reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never reserved, was already consumed, or is
    /// filled twice — all protocol violations the RTL's formal properties
    /// rule out.
    pub fn fill(&mut self, slot: Slot, value: u64) {
        // Sequences run contiguously from the head: the slot's position is
        // its distance from the head's sequence.
        let entry = self
            .slots
            .front()
            .and_then(|&(head, _)| slot.0.checked_sub(head))
            .and_then(|i| self.slots.get_mut(i as usize))
            .expect("fill of unreserved or already-consumed slot");
        assert!(entry.1.is_none(), "slot filled twice");
        entry.1 = Some(value);
    }

    /// Number of entries ready for consumption at the head (a contiguous
    /// run of filled slots).
    #[must_use]
    pub fn ready_at_head(&self) -> usize {
        self.slots
            .iter()
            .take_while(|(_, v)| v.is_some())
            .count()
    }

    /// Pops the head entry if it has arrived.
    pub fn pop(&mut self) -> Option<u64> {
        match self.slots.front() {
            Some((_, Some(_))) => {
                self.consumed.inc();
                self.slots.pop_front().and_then(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Pops `n` head entries if all have arrived, packing them
    /// little-endian (entry 0 in the low bits). Used by wide consumes:
    /// an 8-byte load from a 4-byte-entry queue pops two entries.
    pub fn pop_packed(&mut self, n: usize) -> Option<u64> {
        if self.ready_at_head() < n {
            return None;
        }
        let mut out = 0u64;
        let shift = u64::from(self.entry_bytes) * 8;
        for i in 0..n {
            let v = self.pop().expect("readiness checked");
            let mask = if shift >= 64 { u64::MAX } else { (1u64 << shift) - 1 };
            out |= (v & mask) << (shift * i as u64);
        }
        Some(out)
    }
}

/// The queue controller: all FIFOs of one MAPLE instance sharing a
/// scratchpad budget.
#[derive(Debug, Clone)]
pub struct QueueController {
    queues: Vec<FifoQueue>,
    scratchpad_bytes: u64,
}

impl QueueController {
    /// Creates `count` queues of `entries` × `entry_bytes` each.
    ///
    /// # Errors
    ///
    /// [`QueueError::ScratchpadExceeded`] if the configuration does not fit
    /// the scratchpad, [`QueueError::BadEntrySize`] for entry sizes other
    /// than 4 or 8.
    pub fn new(
        count: usize,
        entries: usize,
        entry_bytes: u8,
        scratchpad_bytes: u64,
    ) -> Result<Self, QueueError> {
        if !matches!(entry_bytes, 4 | 8) {
            return Err(QueueError::BadEntrySize);
        }
        let need = (count * entries * usize::from(entry_bytes)) as u64;
        if need > scratchpad_bytes {
            return Err(QueueError::ScratchpadExceeded);
        }
        Ok(QueueController {
            queues: (0..count).map(|_| FifoQueue::new(entries, entry_bytes)).collect(),
        scratchpad_bytes,
        })
    }

    /// Number of queues.
    #[must_use]
    pub fn count(&self) -> usize {
        self.queues.len()
    }

    /// Scratchpad capacity in bytes.
    #[must_use]
    pub fn scratchpad_bytes(&self) -> u64 {
        self.scratchpad_bytes
    }

    /// Immutable access to queue `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn queue(&self, q: u8) -> &FifoQueue {
        &self.queues[usize::from(q)]
    }

    /// Mutable access to queue `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn queue_mut(&mut self, q: u8) -> &mut FifoQueue {
        &mut self.queues[usize::from(q)]
    }

    /// Reconfigures queue `q` (the `CONFIG_QUEUE` operation). The queue
    /// must be drained first; other queues are unaffected.
    ///
    /// # Errors
    ///
    /// [`QueueError::BadEntrySize`] or [`QueueError::ScratchpadExceeded`]
    /// when the new shape is invalid; the old shape is kept on error.
    pub fn reconfigure(
        &mut self,
        q: u8,
        entries: usize,
        entry_bytes: u8,
    ) -> Result<(), QueueError> {
        if !matches!(entry_bytes, 4 | 8) {
            return Err(QueueError::BadEntrySize);
        }
        let others: u64 = self
            .queues
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != usize::from(q))
            .map(|(_, fq)| (fq.capacity() * usize::from(fq.entry_bytes())) as u64)
            .sum();
        if others + (entries * usize::from(entry_bytes)) as u64 > self.scratchpad_bytes {
            return Err(QueueError::ScratchpadExceeded);
        }
        self.queues[usize::from(q)] = FifoQueue::new(entries, entry_bytes);
        Ok(())
    }

    /// Whether every queue is completely empty.
    #[must_use]
    pub fn all_empty(&self) -> bool {
        self.queues.iter().all(FifoQueue::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q32() -> FifoQueue {
        FifoQueue::new(32, 4)
    }

    #[test]
    fn push_pop_order() {
        let mut q = q32();
        for v in 0..10u64 {
            q.push(v).unwrap();
        }
        for v in 0..10u64 {
            assert_eq!(q.pop(), Some(v));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.produced.get(), 10);
        assert_eq!(q.consumed.get(), 10);
    }

    #[test]
    fn reserve_fill_reorders_to_program_order() {
        let mut q = q32();
        let s1 = q.reserve().unwrap();
        let s2 = q.reserve().unwrap();
        let s3 = q.reserve().unwrap();
        // Memory responses arrive out of order.
        q.fill(s3, 33);
        q.fill(s1, 11);
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None, "second slot still in flight");
        q.fill(s2, 22);
        assert_eq!(q.pop(), Some(22));
        assert_eq!(q.pop(), Some(33));
    }

    #[test]
    fn full_queue_refuses_reservation() {
        let mut q = FifoQueue::new(2, 4);
        let _ = q.reserve().unwrap();
        let _ = q.reserve().unwrap();
        assert!(q.is_full());
        assert_eq!(q.reserve(), Err(QueueError::Full));
        assert_eq!(q.push(5), Err(QueueError::Full));
    }

    #[test]
    fn pop_packed_two_words() {
        let mut q = FifoQueue::new(8, 4);
        q.push(0x1111_1111).unwrap();
        q.push(0x2222_2222).unwrap();
        q.push(0x3333_3333).unwrap();
        assert_eq!(q.pop_packed(2), Some(0x2222_2222_1111_1111));
        assert_eq!(q.pop_packed(2), None, "only one entry left");
        assert_eq!(q.pop_packed(1), Some(0x3333_3333));
    }

    #[test]
    fn pop_packed_blocks_on_unfilled_head() {
        let mut q = FifoQueue::new(8, 4);
        let s = q.reserve().unwrap();
        q.push(7).unwrap();
        assert_eq!(q.pop_packed(2), None, "head still in flight");
        q.fill(s, 6);
        assert_eq!(q.pop_packed(2), Some((7 << 32) | 6));
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn double_fill_panics() {
        let mut q = q32();
        let s = q.reserve().unwrap();
        q.fill(s, 1);
        q.fill(s, 2);
    }

    #[test]
    #[should_panic(expected = "unreserved or already-consumed")]
    fn fill_of_consumed_slot_panics() {
        // The slot sits before the head: its position would underflow.
        let mut q = q32();
        let s = q.reserve().unwrap();
        q.push(7).unwrap();
        q.fill(s, 1);
        assert_eq!(q.pop(), Some(1));
        q.fill(s, 2);
    }

    #[test]
    #[should_panic(expected = "unreserved or already-consumed")]
    fn fill_of_unreserved_slot_panics() {
        // The slot lies past the tail: no reservation holds it yet.
        let mut q = q32();
        let _ = q.reserve().unwrap();
        q.fill(Slot(1), 1);
    }

    #[test]
    fn controller_budget_enforced() {
        // 8 × 32 × 4 B = 1 KB exactly: the paper's shipped configuration.
        let c = QueueController::new(8, 32, 4, 1024).unwrap();
        assert_eq!(c.count(), 8);
        assert!(QueueController::new(8, 33, 4, 1024).is_err());
        assert!(matches!(
            QueueController::new(8, 32, 3, 1024),
            Err(QueueError::BadEntrySize)
        ));
    }

    #[test]
    fn controller_reconfigure() {
        let mut c = QueueController::new(2, 16, 4, 256).unwrap();
        // Grow queue 0 to 32 × 4 = 128; q1 keeps 64 → 192 ≤ 256: ok.
        c.reconfigure(0, 32, 4).unwrap();
        assert_eq!(c.queue(0).capacity(), 32);
        // Too big: 48 × 4 + 64 = 256... exactly fits.
        c.reconfigure(0, 48, 4).unwrap();
        // One more entry exceeds the budget and must fail.
        assert_eq!(
            c.reconfigure(0, 49, 4),
            Err(QueueError::ScratchpadExceeded)
        );
        assert_eq!(c.queue(0).capacity(), 48, "old shape kept on error");
    }

    #[test]
    fn ready_at_head_counts_contiguous() {
        let mut q = q32();
        q.push(1).unwrap();
        let s = q.reserve().unwrap();
        q.push(3).unwrap();
        assert_eq!(q.ready_at_head(), 1);
        q.fill(s, 2);
        assert_eq!(q.ready_at_head(), 3);
    }

    #[test]
    fn error_display() {
        assert_eq!(QueueError::Full.to_string(), "queue full");
        assert!(QueueError::ScratchpadExceeded.to_string().contains("scratchpad"));
    }
}
