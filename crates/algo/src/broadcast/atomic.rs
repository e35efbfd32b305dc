//! Atomic broadcast by a sequence of consensus instances.
//!
//! The Chandra–Toueg transformation that makes atomic broadcast
//! equivalent to consensus (§1.1 of the paper): gossip messages
//! reliably, then agree — instance by instance — on the next *batch* to
//! deliver; deliver each decided batch in a deterministic order. Running
//! it over the `P`-based flood-set consensus gives an atomic broadcast
//! that tolerates any number of crashes, as the paper's collapse
//! predicts.

use crate::consensus::{FloodSetConsensus, FloodSetMsg};
use crate::driver::SlotDriver;
use rfd_core::ProcessId;
use rfd_sim::{Automaton, Envelope, StepContext};
use std::collections::BTreeSet;

/// An atomically-broadcast message: origin index, per-origin sequence,
/// payload.
pub type Item<V> = (u16, u64, V);

/// A consensus batch: a sorted set of items. Ordering is customized so
/// that **non-empty batches sort before the empty one** — the flood-set
/// decision rule picks the minimum proposal, and an empty proposal must
/// never win over real work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch<V>(pub Vec<Item<V>>);

impl<V: Ord> PartialOrd for Batch<V> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: Ord> Ord for Batch<V> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match (self.0.is_empty(), other.0.is_empty()) {
            (true, true) => core::cmp::Ordering::Equal,
            (true, false) => core::cmp::Ordering::Greater,
            (false, true) => core::cmp::Ordering::Less,
            (false, false) => self.0.cmp(&other.0),
        }
    }
}

/// Messages of the atomic broadcast protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbMsg<V> {
    /// Reliable diffusion of one item.
    Gossip(Item<V>),
    /// Embedded consensus traffic for the numbered instance.
    Consensus {
        /// Instance number.
        k: u64,
        /// Flood-set message over batches.
        inner: FloodSetMsg<Batch<V>>,
    },
}

/// A total-order delivery event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbDelivery<V> {
    /// Consensus instance that ordered the item.
    pub instance: u64,
    /// Originating process.
    pub origin: ProcessId,
    /// Per-origin sequence number.
    pub seq: u64,
    /// Payload.
    pub value: V,
}

/// Atomic broadcast automaton over flood-set (`P`-based) consensus.
#[derive(Debug)]
pub struct AtomicBroadcast<V: Clone + Eq + Ord> {
    me: ProcessId,
    to_send: Vec<V>,
    sent: bool,
    /// Items seen (gossiped) but not yet delivered.
    pending: BTreeSet<Item<V>>,
    /// Keys of delivered items.
    delivered: BTreeSet<(u16, u64)>,
    /// Gossip keys already forwarded.
    forwarded: BTreeSet<(u16, u64)>,
    /// The consensus sequence: one instance per slot, the tail's live,
    /// later slots' traffic buffered until the tail settles.
    slots: SlotDriver<FloodSetConsensus<Batch<V>>>,
}

impl<V: Clone + Eq + Ord> AtomicBroadcast<V> {
    /// Creates a process that A-broadcasts `to_send`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize, to_send: Vec<V>) -> Self {
        Self {
            me,
            to_send,
            sent: false,
            pending: BTreeSet::new(),
            delivered: BTreeSet::new(),
            forwarded: BTreeSet::new(),
            slots: SlotDriver::new(me, n),
        }
    }

    /// Builds a fleet from per-process payload lists.
    #[must_use]
    pub fn fleet(payloads: Vec<Vec<V>>) -> Vec<Self> {
        let n = payloads.len();
        payloads
            .into_iter()
            .enumerate()
            .map(|(ix, msgs)| Self::new(ProcessId::new(ix), n, msgs))
            .collect()
    }

    fn proposal(&self) -> Batch<V> {
        Batch(self.pending.iter().cloned().collect())
    }

    /// Delivers the not yet delivered items of `instance`'s decision.
    fn deliver(
        &mut self,
        instance: u64,
        Batch(items): Batch<V>,
        ctx: &mut StepContext<AbMsg<V>, AbDelivery<V>>,
    ) {
        for item in items {
            if self.delivered.insert((item.0, item.1)) {
                self.pending.remove(&item);
                ctx.output(AbDelivery {
                    instance,
                    origin: ProcessId::new(usize::from(item.0)),
                    seq: item.1,
                    value: item.2,
                });
            }
        }
    }
}

impl<V: Clone + Eq + Ord> Automaton for AtomicBroadcast<V> {
    type Msg = AbMsg<V>;
    type Output = AbDelivery<V>;

    fn on_step(
        &mut self,
        input: Option<&Envelope<Self::Msg>>,
        ctx: &mut StepContext<Self::Msg, Self::Output>,
    ) {
        // A-broadcast own payloads once, via gossip diffusion.
        if !self.sent {
            self.sent = true;
            let me = self.me.index() as u16;
            for (seq, value) in self.to_send.clone().into_iter().enumerate() {
                let item: Item<V> = (me, seq as u64, value);
                self.pending.insert(item.clone());
                self.forwarded.insert((item.0, item.1));
                ctx.broadcast_others(AbMsg::Gossip(item));
            }
        }
        let suspects = ctx.suspects();
        let mut sends = Vec::new();
        let mut decided = None;
        let mut stepped = false;
        if let Some(env) = input {
            match &env.payload {
                AbMsg::Gossip(item) => {
                    let key = (item.0, item.1);
                    if self.forwarded.insert(key) {
                        ctx.broadcast_others(AbMsg::Gossip(item.clone()));
                    }
                    if !self.delivered.contains(&key) {
                        self.pending.insert(item.clone());
                    }
                }
                AbMsg::Consensus { k, inner } => {
                    stepped = self.slots.is_open(*k);
                    decided = self
                        .slots
                        .on_message_into(*k, env.from, inner, suspects, &mut sends);
                }
            }
        }
        // One step per step: a λ-step unless the input stepped the tail.
        if !stepped {
            decided = self.slots.tick_into(suspects, &mut sends);
        }
        // Deliver each decision and open the next slot while there is
        // work to order or traffic for it, cascading while the replayed
        // backlog decides.
        loop {
            if let Some(batch) = decided.take() {
                self.deliver(self.slots.tail() - 1, batch, ctx);
            }
            let tail = self.slots.tail();
            if self.slots.is_open(tail) || (self.pending.is_empty() && self.slots.buffered() == 0) {
                break;
            }
            decided = self
                .slots
                .open_into(tail, self.proposal(), suspects, &mut sends);
            if decided.is_none() {
                break;
            }
        }
        for (to, k, inner) in sends {
            ctx.send(to, AbMsg::Consensus { k, inner });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_core::{ProcessSet, Time};

    #[test]
    fn batch_ordering_prefers_nonempty() {
        let empty: Batch<u64> = Batch(Vec::new());
        let one = Batch(vec![(0, 0, 5u64)]);
        assert!(one < empty);
        assert_eq!(empty.cmp(&Batch(Vec::new())), core::cmp::Ordering::Equal);
        let two = Batch(vec![(0, 0, 5u64), (1, 0, 6)]);
        assert!(one < two, "lexicographic on contents otherwise");
    }

    /// Steps p0 of 3 on `Consensus { k, Decided(batch) }` from `from`;
    /// returns `(instance, value)` per delivery.
    fn on_decided(
        ab: &mut AtomicBroadcast<u64>,
        from: usize,
        k: u64,
        batch: Batch<u64>,
    ) -> Vec<(u64, u64)> {
        let (me, from) = (ProcessId::new(0), ProcessId::new(from));
        let env = Envelope {
            id: 0,
            from,
            to: me,
            payload: AbMsg::Consensus {
                k,
                inner: FloodSetMsg::Decided(batch),
            },
            sent_at: Time::ZERO,
            causal_past: ProcessSet::singleton(from),
        };
        let mut ctx = StepContext::new_for_embedding(me, 3, ProcessSet::empty());
        ab.on_step(Some(&env), &mut ctx);
        let (_, deliveries) = ctx.into_effects();
        deliveries.iter().map(|d| (d.instance, d.value)).collect()
    }

    /// Two copies of instance 1's decision arrive before instance 0
    /// decides. Deciding 0 replays them: the first decides 1, and the
    /// second copy belongs to the settled instance 1, so it must not
    /// decide instance 2, whose own decision comes later.
    #[test]
    fn a_settled_instances_buffered_frames_do_not_drive_the_next_one() {
        let mut ab: AtomicBroadcast<u64> = AtomicBroadcast::new(ProcessId::new(0), 3, vec![]);
        let b1 = Batch(vec![(1, 1, 11)]);
        assert!(on_decided(&mut ab, 1, 1, b1.clone()).is_empty());
        assert!(on_decided(&mut ab, 2, 1, b1).is_empty());
        let b0 = Batch(vec![(1, 0, 10)]);
        assert_eq!(on_decided(&mut ab, 1, 0, b0), [(0, 10), (1, 11)]);
        let b2 = Batch(vec![(2, 0, 20)]);
        assert_eq!(on_decided(&mut ab, 1, 2, b2), [(2, 20)]);
    }

    #[test]
    fn proposal_reflects_pending() {
        let mut ab: AtomicBroadcast<u64> = AtomicBroadcast::new(ProcessId::new(0), 2, vec![]);
        assert!(ab.proposal().0.is_empty());
        ab.pending.insert((1, 0, 9));
        assert_eq!(ab.proposal().0, vec![(1, 0, 9)]);
    }
}
