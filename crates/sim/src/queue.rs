//! The per-process delivery queue: a binary heap ordered by `(due, id)`.
//!
//! The engine formerly kept each process's in-flight messages in a plain
//! `Vec` and re-scanned it linearly on every receive step — O(inbox) per
//! delivery, O(inbox²) per drained inbox. [`EventQueue`] replaces that
//! scan with a min-heap keyed on `(due, id)`.
//!
//! **Order preservation.** The old scan removed the envelope minimizing
//! `(due, id)` among those with `due ≤ now`. The heap's global minimum is
//! the same envelope whenever one is eligible: the heap minimum has the
//! smallest `(due, id)` of the whole queue, so either its `due` exceeds
//! `now` (then every entry's does, and the scan would also deliver
//! nothing) or it is exactly the scan's pick. Delivery order — and with
//! it every deterministic trace — is bit-for-bit identical; the
//! equivalence is property-tested against a reference linear scan in
//! `tests/prop_queue.rs`.

use crate::message::Envelope;
use rfd_core::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pending message with its earliest delivery time.
struct Entry<M> {
    due: Time,
    envelope: Envelope<M>,
}

impl<M> Entry<M> {
    /// The heap key; `id` is unique per engine run, so ties cannot occur
    /// between distinct messages.
    fn key(&self) -> (Time, u64) {
        (self.due, self.envelope.id)
    }
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Entry<M> {}

impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest
        // `(due, id)` on top.
        other.key().cmp(&self.key())
    }
}

/// A process's delivery queue, ordered by `(due, id)`.
pub struct EventQueue<M> {
    heap: BinaryHeap<Entry<M>>,
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// Enqueues `envelope` for delivery no earlier than `due`.
    pub fn push(&mut self, envelope: Envelope<M>, due: Time) {
        self.heap.push(Entry { due, envelope });
    }

    /// Removes and returns the `(due, id)`-minimal envelope whose due
    /// time has been reached, or `None` if nothing is deliverable at
    /// `now`.
    pub fn pop_due(&mut self, now: Time) -> Option<Envelope<M>> {
        if matches!(self.heap.peek(), Some(entry) if entry.due <= now) {
            self.heap.pop().map(|entry| entry.envelope)
        } else {
            None
        }
    }

    /// The earliest due time in the queue, if any.
    #[must_use]
    pub fn next_due(&self) -> Option<Time> {
        self.heap.peek().map(|entry| entry.due)
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> std::fmt::Debug for EventQueue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("next_due", &self.next_due())
            .finish()
    }
}

/// The engine's **pre-refactor** delivery rule, verbatim: scan the whole
/// inbox and remove the `(due, id)`-minimal entry among those with
/// `due <= now`.
///
/// Kept as the single canonical baseline that the property tests
/// (`tests/prop_queue.rs`) pin [`EventQueue`] against; not part of the
/// supported API.
#[doc(hidden)]
pub fn take_due_linear_reference<M>(
    inbox: &mut Vec<(Envelope<M>, Time)>,
    now: Time,
) -> Option<Envelope<M>> {
    let mut best: Option<usize> = None;
    for (i, (envelope, due)) in inbox.iter().enumerate() {
        if *due <= now {
            let better = match best {
                None => true,
                Some(b) => {
                    let (b_env, b_due) = &inbox[b];
                    (*due, envelope.id) < (*b_due, b_env.id)
                }
            };
            if better {
                best = Some(i);
            }
        }
    }
    best.map(|i| inbox.swap_remove(i).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_core::{ProcessId, ProcessSet};

    fn env(id: u64) -> Envelope<u8> {
        Envelope {
            id,
            from: ProcessId::new(0),
            to: ProcessId::new(1),
            payload: 0,
            sent_at: Time::ZERO,
            causal_past: ProcessSet::singleton(ProcessId::new(0)),
        }
    }

    #[test]
    fn pops_in_due_then_id_order() {
        let mut q = EventQueue::new();
        q.push(env(2), Time::new(5));
        q.push(env(1), Time::new(5));
        q.push(env(0), Time::new(9));
        assert_eq!(q.pop_due(Time::new(10)).unwrap().id, 1);
        assert_eq!(q.pop_due(Time::new(10)).unwrap().id, 2);
        assert_eq!(q.pop_due(Time::new(10)).unwrap().id, 0);
        assert!(q.pop_due(Time::new(10)).is_none());
    }

    #[test]
    fn nothing_is_delivered_before_due() {
        let mut q = EventQueue::new();
        q.push(env(0), Time::new(7));
        assert!(q.pop_due(Time::new(6)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_due(), Some(Time::new(7)));
        assert!(q.pop_due(Time::new(7)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn later_eligible_message_waits_for_earlier_key() {
        // id 5 due at 1, id 3 due at 2: at now=2 both eligible, the
        // smaller (due, id) key — (1, 5) — wins.
        let mut q = EventQueue::new();
        q.push(env(5), Time::new(1));
        q.push(env(3), Time::new(2));
        assert_eq!(q.pop_due(Time::new(2)).unwrap().id, 5);
        assert_eq!(q.pop_due(Time::new(2)).unwrap().id, 3);
    }
}
