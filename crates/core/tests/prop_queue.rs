//! Property tests for the scratchpad FIFO queues — the invariants the
//! paper verified with SystemVerilog assertions and JasperGold:
//! no overflow, no underflow, FIFO order, and program-order restoration
//! under arbitrary memory-response reordering.

use maple_core::queue::{FifoQueue, QueueController, QueueError, Slot};
use maple_testkit::{check, gen, tk_assert, tk_assert_eq, Config, Gen, SimRng};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Reserve,
    /// Fill the i-th oldest outstanding reservation (mod count).
    Fill(usize, u64),
    Pop,
}

/// Generates queue operations uniformly; shrinks payload values toward
/// zero and indices toward the oldest reservation, and demotes any op to
/// the structurally simplest one (`Pop`).
struct OpGen;

impl Gen for OpGen {
    type Value = Op;

    fn generate(&self, rng: &mut SimRng) -> Op {
        match rng.below(4) {
            0 => Op::Push(rng.next_u64()),
            1 => Op::Reserve,
            2 => Op::Fill(rng.next_u64() as usize, rng.next_u64()),
            _ => Op::Pop,
        }
    }

    fn shrink(&self, value: &Op) -> Vec<Op> {
        let mut out = Vec::new();
        match value {
            Op::Push(v) => {
                out.push(Op::Pop);
                out.extend(gen::shrink_u64(*v).into_iter().take(4).map(Op::Push));
            }
            Op::Reserve => out.push(Op::Pop),
            Op::Fill(i, v) => {
                out.push(Op::Pop);
                out.extend(
                    gen::shrink_u64(*i as u64)
                        .into_iter()
                        .take(2)
                        .map(|i| Op::Fill(i as usize, *v)),
                );
                out.extend(
                    gen::shrink_u64(*v)
                        .into_iter()
                        .take(2)
                        .map(|v| Op::Fill(*i, v)),
                );
            }
            Op::Pop => {}
        }
        out
    }
}

#[test]
fn queue_matches_reference_model() {
    let inputs = (gen::usize_in(1..64), gen::vec_of(OpGen, 0, 200));
    check(
        &Config::new("queue_matches_reference_model"),
        &inputs,
        |input| {
            let (capacity, ops) = input;
            let capacity = *capacity;
            let mut q = FifoQueue::new(capacity, 8);
            // Reference model: FIFO of either a value or a pending ticket.
            let mut model: VecDeque<Option<u64>> = VecDeque::new();
            let mut pending_slots: Vec<Slot> = Vec::new();

            for op in ops {
                match op {
                    Op::Push(v) => {
                        let expect_full = model.len() >= capacity;
                        match q.push(*v) {
                            Ok(()) => {
                                tk_assert!(!expect_full, "push succeeded on full queue");
                                model.push_back(Some(*v));
                            }
                            Err(QueueError::Full) => tk_assert!(expect_full),
                            Err(e) => tk_assert!(false, "unexpected error {e:?}"),
                        }
                    }
                    Op::Reserve => {
                        let expect_full = model.len() >= capacity;
                        match q.reserve() {
                            Ok(slot) => {
                                tk_assert!(!expect_full);
                                model.push_back(None);
                                pending_slots.push(slot);
                            }
                            Err(QueueError::Full) => tk_assert!(expect_full),
                            Err(e) => tk_assert!(false, "unexpected error {e:?}"),
                        }
                    }
                    Op::Fill(i, v) => {
                        if pending_slots.is_empty() {
                            continue;
                        }
                        let idx = i % pending_slots.len();
                        let slot = pending_slots.remove(idx);
                        q.fill(slot, *v);
                        // Patch the model: the idx-th unfilled entry becomes v.
                        let mut seen = 0;
                        for e in &mut model {
                            if e.is_none() {
                                if seen == idx {
                                    *e = Some(*v);
                                    break;
                                }
                                seen += 1;
                            }
                        }
                    }
                    Op::Pop => {
                        let expect = match model.front() {
                            Some(Some(v)) => Some(*v),
                            _ => None,
                        };
                        let got = q.pop();
                        tk_assert_eq!(got, expect, "pop mismatch");
                        if got.is_some() {
                            model.pop_front();
                        }
                    }
                }
                tk_assert_eq!(q.occupancy(), model.len());
                tk_assert_eq!(q.is_full(), model.len() >= capacity);
            }
            Ok(())
        },
    );
}

#[test]
fn out_of_order_fills_always_pop_in_program_order() {
    let inputs = (gen::vec_of(gen::u64_any(), 1, 31), gen::u64_any());
    check(
        &Config::new("out_of_order_fills_always_pop_in_program_order"),
        &inputs,
        |(values, order_seed)| {
            let n = values.len();
            let mut q = FifoQueue::new(n, 8);
            let slots: Vec<Slot> = (0..n).map(|_| q.reserve().unwrap()).collect();
            // Fill in a pseudo-random order.
            let mut idx: Vec<usize> = (0..n).collect();
            let mut rng = SimRng::seed(*order_seed);
            rng.shuffle(&mut idx);
            for &i in &idx {
                q.fill(slots[i], values[i]);
            }
            // Pops return the original program order.
            for v in values {
                tk_assert_eq!(q.pop(), Some(*v));
            }
            tk_assert!(q.is_empty());
            Ok(())
        },
    );
}

#[test]
fn controller_budget_is_a_hard_invariant() {
    // Exhaustive small-space check: any (count, entries, bytes) whose
    // product exceeds the scratchpad is refused.
    for count in 1..=8usize {
        for entries in [1usize, 8, 16, 32, 64] {
            for bytes in [4u8, 8] {
                let need = (count * entries * usize::from(bytes)) as u64;
                let r = QueueController::new(count, entries, bytes, 1024);
                assert_eq!(r.is_ok(), need <= 1024, "{count}x{entries}x{bytes}");
            }
        }
    }
}
