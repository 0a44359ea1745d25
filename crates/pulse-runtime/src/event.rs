//! The discrete-event core: a time-ordered event queue.
//!
//! Every event is keyed by `(time_ms, sequence)`. The sequence number makes
//! event ordering fully deterministic when timestamps tie (heaps are not
//! stable), which the validation experiments rely on.
//!
//! The queue has two parts. A session's minute ticks are known up front and
//! fire in order, so they are a *run* `next_minute..minutes` beside the
//! heap, not heap entries. Tick `m` carries the key `(m · MS_PER_MINUTE, m)`:
//! the session reserves sequence numbers `0..minutes` for its ticks before
//! anything else is pushed. The binary heap holds everything else: seeded
//! arrivals, node faults, SLO timers and in-flight completions.
//! [`EventQueue::pop`] and [`EventQueue::peek_time`] take whichever of the
//! run's head and the heap's top has the smaller `(time, seq)` key. That is
//! exactly the order one heap holding both would pop, exact ties at minute
//! boundaries included, while each push and pop stays as shallow as the
//! handful of in-flight events allows.

use crate::MS_PER_MINUTE;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Runtime events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A request for `func` arrives (its id indexes the request table).
    Arrival {
        /// Target function.
        func: usize,
        /// Request id.
        req: usize,
    },
    /// A cold-started container of `func` finished provisioning + loading.
    ProvisionDone {
        /// Owning function.
        func: usize,
        /// Provisioning epoch — stale completions (the container was
        /// cancelled and re-provisioned meanwhile) are ignored.
        epoch: u64,
    },
    /// A request finished executing.
    ExecDone {
        /// Owning function.
        func: usize,
        /// Request id.
        req: usize,
        /// Execution generation of the request when it was started — a node
        /// crash aborts in-flight work by bumping the generation, so stale
        /// completions are ignored. Always `0` outside node-fault runs.
        gen: u64,
    },
    /// A provisioning attempt failed (fault injection). Same staleness
    /// semantics as [`Event::ProvisionDone`].
    ProvisionFailed {
        /// Owning function.
        func: usize,
        /// Provisioning epoch of the failed attempt.
        epoch: u64,
    },
    /// The container crashed partway through executing `req` (fault
    /// injection).
    ExecFailed {
        /// Owning function.
        func: usize,
        /// Request whose execution was aborted.
        req: usize,
        /// Epoch of the container that was executing — if the function has
        /// since swapped containers, the replacement is not reaped.
        epoch: u64,
        /// Execution generation (see [`Event::ExecDone::gen`]).
        gen: u64,
    },
    /// `req` exceeded its per-request SLO budget (fault plans with a
    /// timeout). Ignored when the request already completed.
    RequestTimeout {
        /// Owning function.
        func: usize,
        /// Request id.
        req: usize,
    },
    /// Re-attempt `req` after a crash-retry backoff.
    RetryRequest {
        /// Owning function.
        func: usize,
        /// Request id.
        req: usize,
    },
    /// A minute boundary: apply keep-alive schedules, run the policy's
    /// cross-function adjustment, meter memory.
    MinuteTick {
        /// The minute that begins at this tick.
        minute: u64,
    },
    /// A node-level fault strikes (fleet runs only). Scheduled right after
    /// the tick of its minute, before that minute's arrivals.
    NodeDown {
        /// Affected node.
        node: usize,
        /// Index of the fault window in the fleet's `NodeFaultPlan`.
        fault: usize,
    },
    /// A node-level fault window ends (fleet runs only). The node's health
    /// is recomputed from the plan — overlapping windows may keep it down.
    NodeRecovered {
        /// Affected node.
        node: usize,
        /// Index of the fault window that just expired.
        fault: usize,
    },
    /// A warm-container migration's charged pause elapsed: the container is
    /// serving again on its new node. Same staleness semantics as
    /// [`Event::ProvisionDone`].
    MigrationDone {
        /// Owning function.
        func: usize,
        /// Epoch stamped when the migration began.
        epoch: u64,
    },
}

/// Deterministic time-ordered queue: a heap of scheduled events plus the
/// run of pending minute ticks (see the module docs).
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
    /// The next pending minute tick; ticks `next_minute..minutes` are due.
    next_minute: u64,
    /// One past the last minute tick.
    minutes: u64,
}

/// One heap entry: `event` scheduled at `t` with insertion sequence `s`.
/// The two keys stay separate `u64`s (a stored `u128` would pad the entry
/// from 56 to 64 bytes); only the comparison packs them.
#[derive(Debug)]
struct Entry {
    t: u64,
    s: u64,
    event: Event,
}

impl Entry {
    /// `(t, s)` as one integer, `t` in the high half: one `u128` compare
    /// orders keys exactly as the lexicographic `(t, s)` tuple compare.
    fn key(&self) -> u128 {
        (u128::from(self.t) << 64) | u128::from(self.s)
    }
}

// Reversed so the max-heap pops the smallest key; the payload is never
// compared (sequence numbers are unique, so keys never tie).
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Entry {}

impl EventQueue {
    /// Empty queue without minute ticks.
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue holding the minute ticks `0..minutes` and nothing else. The
    /// ticks take sequence numbers `0..minutes` and the first
    /// [`Self::push`] stamps `minutes`: the keys that pushing each
    /// [`Event::MinuteTick`] at `m · MS_PER_MINUTE` into an empty queue
    /// would give.
    pub fn with_minute_ticks(minutes: u64) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: minutes,
            next_minute: 0,
            minutes,
        }
    }

    /// Schedule `event` at absolute time `at_ms`. Minute ticks are not
    /// pushed: they come from [`Self::with_minute_ticks`].
    pub fn push(&mut self, at_ms: u64, event: Event) {
        debug_assert!(
            !matches!(event, Event::MinuteTick { .. }),
            "minute ticks live in the tick run"
        );
        self.heap.push(Entry {
            t: at_ms,
            s: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// The run's head tick, when it is the next event: a tick is pending
    /// and its `(time, seq)` key is not above the heap's top.
    fn next_tick(&self) -> Option<u64> {
        let m = self.next_minute;
        let due = m < self.minutes
            && self
                .heap
                .peek()
                .is_none_or(|e| (m * MS_PER_MINUTE, m) <= (e.t, e.s));
        due.then_some(m)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        if let Some(minute) = self.next_tick() {
            self.next_minute += 1;
            return Some((minute * MS_PER_MINUTE, Event::MinuteTick { minute }));
        }
        self.heap.pop().map(|e| (e.t, e.event))
    }

    /// The earliest event and its timestamp, without removing it.
    pub fn peek(&self) -> Option<(u64, Event)> {
        if let Some(minute) = self.next_tick() {
            return Some((minute * MS_PER_MINUTE, Event::MinuteTick { minute }));
        }
        self.heap.peek().map(|e| (e.t, e.event.clone()))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.peek().map(|(t, _)| t)
    }

    /// Number of pending events, pending minute ticks included.
    pub fn len(&self) -> usize {
        let ticks = usize::try_from(self.minutes - self.next_minute).unwrap_or(usize::MAX);
        self.heap.len().saturating_add(ticks)
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.next_minute == self.minutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Gives `Event` the total order a tuple heap key needs without ever
    /// consulting the payload: all events compare equal.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct EventKeyed(Event);

    impl PartialOrd for EventKeyed {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for EventKeyed {
        fn cmp(&self, _other: &Self) -> Ordering {
            Ordering::Equal
        }
    }

    /// The all-heap queue with `Reverse<(time, seq, event)>` tuple entries
    /// that the tick run and the packed key replaced, kept as the ordering
    /// oracle: every event, minute ticks included, is a heap entry.
    #[derive(Debug, Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, EventKeyed)>>,
        seq: u64,
    }

    impl HeapQueue {
        /// The session's start: ticks `0..minutes` pushed first.
        fn with_minute_ticks(minutes: u64) -> Self {
            let mut q = Self::default();
            for m in 0..minutes {
                q.push(m * MS_PER_MINUTE, Event::MinuteTick { minute: m });
            }
            q
        }

        fn push(&mut self, at_ms: u64, event: Event) {
            self.heap
                .push(Reverse((at_ms, self.seq, EventKeyed(event))));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, Event)> {
            self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
        }

        fn peek(&self) -> Option<(u64, Event)> {
            self.heap.peek().map(|Reverse((t, _, e))| (*t, e.0.clone()))
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((t, ..))| *t)
        }
    }

    /// The events a session pushes at minute boundaries, plus arrivals.
    fn event(kind: u8, x: usize) -> Event {
        match kind {
            0 => Event::ExecDone {
                func: x,
                req: x,
                gen: 0,
            },
            1 => Event::ProvisionDone { func: x, epoch: 1 },
            2 => Event::NodeDown { node: x, fault: x },
            3 => Event::NodeRecovered { node: x, fault: x },
            _ => Event::Arrival { func: x, req: x },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random pushes (a third of them exactly on a minute boundary),
        /// pushes at `u64::MAX` (a saturated request timeout) and bursts
        /// sharing one timestamp across many sequence numbers, interleaved
        /// with pops, peeks and length checks, pop in exactly the all-heap
        /// tuple queue's order.
        #[test]
        fn tick_run_pops_exactly_like_the_all_heap_queue(
            minutes in 0u64..8,
            ops in proptest::collection::vec(
                (0u8..12, 0u64..9, 0u8..3, 1u64..MS_PER_MINUTE, 0usize..4),
                0..120,
            ),
        ) {
            let mut q = EventQueue::with_minute_ticks(minutes);
            let mut oracle = HeapQueue::with_minute_ticks(minutes);
            for (op, minute, tie, offset, x) in ops {
                match op {
                    0..=4 => {
                        let at = minute * MS_PER_MINUTE + if tie == 0 { 0 } else { offset };
                        q.push(at, event(op, x));
                        oracle.push(at, event(op, x));
                    }
                    5 => {
                        q.push(u64::MAX, event(0, x));
                        oracle.push(u64::MAX, event(0, x));
                    }
                    6 => {
                        // One exact timestamp (a minute boundary, or the top
                        // of the range) for a burst of up to 32 pushes.
                        let at = if tie == 0 { u64::MAX } else { minute * MS_PER_MINUTE };
                        for k in 0..=(offset % 32) {
                            let kind = u8::try_from(k % 5).unwrap_or(0);
                            q.push(at, event(kind, x));
                            oracle.push(at, event(kind, x));
                        }
                    }
                    7..=9 => prop_assert_eq!(q.pop(), oracle.pop()),
                    _ => {
                        prop_assert_eq!(q.peek_time(), oracle.peek_time());
                        prop_assert_eq!(q.peek(), oracle.peek());
                        prop_assert_eq!(q.len(), oracle.heap.len());
                        prop_assert_eq!(q.is_empty(), oracle.heap.is_empty());
                    }
                }
            }
            loop {
                let (a, b) = (q.pop(), oracle.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn pops_in_time_order_and_ticks_win_exact_ties() {
        let mut q = EventQueue::with_minute_ticks(2);
        q.push(
            MS_PER_MINUTE,
            Event::ExecDone {
                func: 0,
                req: 0,
                gen: 0,
            },
        );
        q.push(30, Event::NodeDown { node: 0, fault: 0 });
        q.push(10, Event::Arrival { func: 0, req: 0 });
        let popped: Vec<(u64, Event)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            vec![
                (0, Event::MinuteTick { minute: 0 }),
                (10, Event::Arrival { func: 0, req: 0 }),
                (30, Event::NodeDown { node: 0, fault: 0 }),
                (MS_PER_MINUTE, Event::MinuteTick { minute: 1 }),
                (
                    MS_PER_MINUTE,
                    Event::ExecDone {
                        func: 0,
                        req: 0,
                        gen: 0,
                    },
                ),
            ]
        );
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::Arrival { func: 1, req: 1 });
        q.push(5, Event::Arrival { func: 2, req: 2 });
        q.push(5, Event::Arrival { func: 3, req: 3 });
        let funcs: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Arrival { func, .. } => func,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(funcs, vec![1, 2, 3]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::with_minute_ticks(1);
        assert_eq!(q.peek_time(), Some(0));
        assert_eq!(q.peek(), Some((0, Event::MinuteTick { minute: 0 })));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(10, Event::Arrival { func: 0, req: 1 });
        q.push(5, Event::Arrival { func: 0, req: 0 });
        assert_eq!(q.pop().unwrap().0, 5);
        q.push(7, Event::Arrival { func: 0, req: 2 });
        assert_eq!(q.pop().unwrap().0, 7);
        assert_eq!(q.pop().unwrap().0, 10);
    }
}
