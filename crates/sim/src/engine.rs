//! A deterministic discrete-event engine over virtual time.
//!
//! The simulation's components charge costs by advancing one shared
//! [`Clock`](crate::Clock) as they run, which makes a single activity a
//! straight-line function call — but it means two activities cannot
//! overlap in *wall-clock call order*. The event engine recovers genuine
//! concurrency on top of that model: activities are decomposed into
//! events on a virtual timeline, the queue releases them in nondecreasing
//! time order, and the driver warps the shared clock to each event's
//! instant before handling it. Any state an activity holds between two of
//! its events (an invoker slot, a resident microVM's guest memory, a
//! checked-out warm container) is therefore held exactly over its virtual
//! lifetime, and unrelated activities scheduled in between observe it —
//! that is what makes slot contention, host-RAM pressure, and
//! snapshot-cache churn interact instead of being modelled post hoc.
//!
//! # Determinism
//!
//! Two rules make every run bit-reproducible:
//!
//! 1. Events fire in nondecreasing virtual time.
//! 2. Events at the *same* instant fire in the order they were scheduled
//!    (each [`EventQueue::schedule`] call takes the next value of a
//!    monotone sequence number, and the heap orders by `(time, seq)`).
//!
//! There is no randomness anywhere in the queue; identical schedules
//! produce identical pop orders on every platform.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// One event released by an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The virtual instant the event fires at.
    pub at: Nanos,
    /// The event's sequence number (its global scheduling order).
    pub seq: u64,
    /// The caller's payload.
    pub event: E,
}

/// Heap entry: min-ordered by `(at, seq)`; the payload never participates
/// in the ordering, so payload types need no `Ord`.
struct Entry<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // `(at, seq)` on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A virtual-time event queue with deterministic tie-breaking.
///
/// # Examples
///
/// ```
/// use fireworks_sim::engine::EventQueue;
/// use fireworks_sim::Nanos;
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_millis(5), "b");
/// q.schedule(Nanos::from_millis(1), "a");
/// q.schedule(Nanos::from_millis(5), "c");
/// let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
/// // Time order first; equal instants fire in scheduling order.
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at` and returns its sequence number.
    ///
    /// Scheduling an event in the "past" (before an already-popped event)
    /// is allowed mechanically but breaks the nondecreasing-release
    /// invariant drivers rely on; well-behaved handlers only schedule at
    /// or after the instant of the event they are handling.
    pub fn schedule(&mut self, at: Nanos, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        seq
    }

    /// Releases the earliest event, `(time, seq)`-ordered.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| Scheduled {
            at: e.at,
            seq: e.seq,
            event: e.event,
        })
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (the next sequence number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn events_release_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(ms(30), 3);
        q.schedule(ms(10), 1);
        q.schedule(ms(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_release_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(ms(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sequence_numbers_are_monotone_across_interleaved_pops() {
        let mut q = EventQueue::new();
        let a = q.schedule(ms(1), ());
        q.pop();
        let b = q.schedule(ms(2), ());
        assert!(b > a);
        assert_eq!(q.scheduled(), 2);
    }

    #[test]
    fn identical_schedules_pop_identically() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..50u64 {
                q.schedule(ms((i * 7) % 13), i);
            }
            std::iter::from_fn(move || q.pop().map(|s| (s.at, s.seq, s.event))).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
