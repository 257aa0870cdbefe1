//! Per-node ejection queues that know which nodes hold anything, so
//! consumers poll only those instead of every node of the fabric.

use std::collections::VecDeque;

use maple_sim::worklist::Worklist;

/// Delivered payloads per node, plus a worklist of the nodes whose queue
/// went non-empty and a running total for O(1) quiescence checks.
///
/// The worklist may hold nodes a consumer has since drained; they are
/// dropped on the next [`Deliveries::pending`].
#[derive(Debug)]
pub(crate) struct Deliveries<T> {
    queues: Vec<VecDeque<T>>,
    ready: Worklist,
    len: usize,
}

impl<T> Deliveries<T> {
    pub(crate) fn new(nodes: usize) -> Self {
        Deliveries {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            ready: Worklist::new(nodes),
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, node: usize, payload: T) {
        self.queues[node].push_back(payload);
        self.ready.insert(node);
        self.len += 1;
    }

    pub(crate) fn take_all(&mut self, node: usize) -> Vec<T> {
        self.len -= self.queues[node].len();
        self.queues[node].drain(..).collect()
    }

    pub(crate) fn take_one(&mut self, node: usize) -> Option<T> {
        let v = self.queues[node].pop_front();
        self.len -= usize::from(v.is_some());
        v
    }

    /// Undrained payloads across every node.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Fills `into` with the nodes holding undrained payloads, ascending.
    pub(crate) fn pending(&mut self, into: &mut Vec<usize>) {
        self.ready.drain_sorted(into);
        into.retain(|&n| !self.queues[n].is_empty());
        for &n in into.iter() {
            self.ready.insert(n);
        }
    }
}
