//! Terminating reliable broadcast over a Perfect failure detector (§5).
//!
//! The sufficiency half of Proposition 5.1, exactly as the paper sketches
//! it: *"each process waits until it receives the value from `p_k` or it
//! suspects `p_k`. In the first case it proposes this value to a
//! consensus, else it proposes `nil`. The value delivered is the
//! consensus value."*
//!
//! The inner consensus is the flood-set `P`-algorithm, so the whole stack
//! works for **any** number of failures. `nil` is encoded as
//! `Option::None`.

use crate::consensus::{ConsensusCore, FloodSetConsensus, FloodSetMsg, Outbox};
use rfd_core::{ProcessId, ProcessSet};
use rfd_sim::{Automaton, Envelope, StepContext};

/// Messages of the TRB protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrbMsg<V> {
    /// The initiator's payload broadcast.
    Payload(V),
    /// An embedded message of the inner consensus on `Option<V>`.
    Consensus(FloodSetMsg<Option<V>>),
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum TrbPhase {
    /// Waiting for the initiator's payload or its suspicion.
    Wait,
    /// Running the inner consensus.
    Deciding,
    /// Delivered.
    Done,
}

/// One process of a TRB instance.
///
/// `Output` is the delivered value: `Some(v)` for the initiator's message
/// or `None` for the paper's `nil`.
#[derive(Clone, Debug)]
pub struct TrbProcess<V> {
    me: ProcessId,
    n: usize,
    initiator: ProcessId,
    /// `Some(m)` iff this process is the initiator broadcasting `m`.
    own_payload: Option<V>,
    sent_payload: bool,
    phase: TrbPhase,
    inner: Option<FloodSetConsensus<Option<V>>>,
    /// Consensus messages arriving before our own consensus started.
    buffered: Vec<(ProcessId, FloodSetMsg<Option<V>>)>,
    delivered: Option<Option<V>>,
}

impl<V: Clone + Eq + Ord> TrbProcess<V> {
    /// Creates the process `me` for the instance initiated by
    /// `initiator`; `payload` must be `Some` exactly on the initiator.
    ///
    /// # Panics
    ///
    /// Panics if `payload.is_some()` disagrees with `me == initiator`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize, initiator: ProcessId, payload: Option<V>) -> Self {
        assert_eq!(
            payload.is_some(),
            me == initiator,
            "exactly the initiator carries the payload"
        );
        Self {
            me,
            n,
            initiator,
            own_payload: payload,
            sent_payload: false,
            phase: TrbPhase::Wait,
            inner: None,
            buffered: Vec::new(),
            delivered: None,
        }
    }

    /// Builds the fleet for one instance.
    #[must_use]
    pub fn fleet(n: usize, initiator: ProcessId, message: V) -> Vec<Self> {
        (0..n)
            .map(|ix| {
                let me = ProcessId::new(ix);
                let payload = (me == initiator).then(|| message.clone());
                Self::new(me, n, initiator, payload)
            })
            .collect()
    }

    /// The delivered value, if delivery happened.
    #[must_use]
    pub fn delivered(&self) -> Option<&Option<V>> {
        self.delivered.as_ref()
    }

    fn start_consensus(&mut self, proposal: Option<V>) {
        self.inner = Some(FloodSetConsensus::new(self.me, self.n, proposal));
        self.phase = TrbPhase::Deciding;
        // Consensus traffic that raced ahead of us stays in `buffered`
        // and is drained through the normal driving path in `step`, so
        // the inner algorithm's own sends are not lost.
    }

    /// Core step shared by the simulator adapter and multi-instance
    /// wrappers. Returns `Some(delivered)` on the delivery step.
    pub fn step(
        &mut self,
        input: Option<(ProcessId, &TrbMsg<V>)>,
        suspects: ProcessSet,
        out: &mut Outbox<TrbMsg<V>>,
    ) -> Option<Option<V>> {
        if self.phase == TrbPhase::Done {
            return None;
        }
        // Initiator: broadcast the payload first.
        if let Some(m) = &self.own_payload {
            if !self.sent_payload {
                self.sent_payload = true;
                let m = m.clone();
                out.broadcast(TrbMsg::Payload(m));
            }
        }
        // Route the input.
        let mut inner_input: Option<(ProcessId, FloodSetMsg<Option<V>>)> = None;
        match input {
            Some((from, TrbMsg::Payload(v)))
                if from == self.initiator && self.phase == TrbPhase::Wait =>
            {
                self.start_consensus(Some(v.clone()));
            }
            Some((from, TrbMsg::Consensus(msg))) => match self.phase {
                TrbPhase::Wait => self.buffered.push((from, msg.clone())),
                TrbPhase::Deciding => inner_input = Some((from, msg.clone())),
                TrbPhase::Done => {}
            },
            _ => {}
        }
        // Wait phase: the suspicion path to a nil proposal.
        if self.phase == TrbPhase::Wait && suspects.contains(self.initiator) {
            self.start_consensus(None);
        }
        // Deciding phase: drain replay backlog, then drive the inner
        // consensus with this step's input.
        if self.phase == TrbPhase::Deciding {
            let mut feeds: Vec<Option<(ProcessId, FloodSetMsg<Option<V>>)>> =
                std::mem::take(&mut self.buffered)
                    .into_iter()
                    .map(Some)
                    .collect();
            feeds.push(inner_input);
            for feed in feeds {
                let inner = self.inner.as_mut().expect("set when entering Deciding");
                let mut inner_out = Outbox::new(self.me, self.n);
                let decided = inner.step(
                    feed.as_ref().map(|(f, m)| (*f, m)),
                    suspects,
                    &mut inner_out,
                );
                for (to, msg) in inner_out.drain() {
                    out.send(to, TrbMsg::Consensus(msg));
                }
                if let Some(v) = decided {
                    self.phase = TrbPhase::Done;
                    self.delivered = Some(v.clone());
                    return Some(v);
                }
            }
        }
        None
    }
}

/// Simulator adapter: delivery becomes the run's output event.
impl<V: Clone + Eq + Ord> Automaton for TrbProcess<V> {
    type Msg = TrbMsg<V>;
    type Output = Option<V>;

    fn on_step(
        &mut self,
        input: Option<&Envelope<Self::Msg>>,
        ctx: &mut StepContext<Self::Msg, Self::Output>,
    ) {
        let mut out = Outbox::new(ctx.me(), ctx.num_processes());
        let delivered = self.step(
            input.map(|e| (e.from, &e.payload)),
            ctx.suspects(),
            &mut out,
        );
        for (to, msg) in out.drain() {
            ctx.send(to, msg);
        }
        if let Some(v) = delivered {
            ctx.output(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fleet_has_payload_only_at_initiator() {
        let fleet = TrbProcess::fleet(3, p(1), 42u64);
        assert!(fleet[0].own_payload.is_none());
        assert_eq!(fleet[1].own_payload, Some(42));
        assert!(fleet[2].own_payload.is_none());
    }

    #[test]
    fn suspicion_of_initiator_leads_to_nil_proposal() {
        let mut t: TrbProcess<u64> = TrbProcess::new(p(1), 2, p(0), None);
        let mut out = Outbox::new(p(1), 2);
        t.step(None, ProcessSet::singleton(p(0)), &mut out);
        assert_eq!(t.phase, TrbPhase::Deciding);
        let inner = t.inner.as_ref().unwrap();
        // The nil proposal is in the inner consensus value set.
        assert_eq!(inner.decision(), None);
    }

    #[test]
    fn payload_reception_starts_consensus_with_the_message() {
        let mut t: TrbProcess<u64> = TrbProcess::new(p(1), 2, p(0), None);
        let mut out = Outbox::new(p(1), 2);
        t.step(
            Some((p(0), &TrbMsg::Payload(9))),
            ProcessSet::empty(),
            &mut out,
        );
        assert_eq!(t.phase, TrbPhase::Deciding);
    }

    #[test]
    fn consensus_traffic_before_start_is_buffered() {
        let mut t: TrbProcess<u64> = TrbProcess::new(p(1), 2, p(0), None);
        let msg = TrbMsg::Consensus(FloodSetMsg::Round {
            r: 1,
            values: vec![Some(9)],
        });
        let mut out = Outbox::new(p(1), 2);
        t.step(Some((p(0), &msg)), ProcessSet::empty(), &mut out);
        assert_eq!(t.buffered.len(), 1);
    }

    #[test]
    #[should_panic(expected = "initiator carries the payload")]
    fn payload_on_non_initiator_panics() {
        let _: TrbProcess<u64> = TrbProcess::new(p(1), 2, p(0), Some(3));
    }
}
