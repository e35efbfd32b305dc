//! Emulating `P` from terminating reliable broadcast (§5, Prop. 5.1,
//! necessary condition).
//!
//! "Whenever a process `pⱼ` delivers `nil` for an instance `(i, ∗)` of
//! the problem, `pⱼ` adds `pᵢ` to `output(P)ⱼ`." Completeness: a crashed
//! initiator's instances deliver `nil` at every correct process.
//! Accuracy: with a realistic detector, `nil` can be delivered only if
//! the initiator has actually crashed (here: the `P`-based TRB stack's
//! suspicion path fires only after a real crash).

use super::emulation::{Emulation, Instance};
use crate::consensus::Outbox;
use crate::trb::{TrbMsg, TrbProcess};
use rfd_core::{ProcessId, ProcessSet};

/// The §5 emulation automaton: round-robin TRB instances; `nil`
/// deliveries populate `output(P)`.
pub type TrbEmulation = Emulation<TrbInstance>;

/// TRB instance `k`, initiated by `p_{k mod n}` with the synthetic
/// payload `k`; delivering `nil` suspects the initiator.
#[derive(Debug)]
pub struct TrbInstance {
    initiator: ProcessId,
    trb: TrbProcess<u64>,
}

impl TrbInstance {
    /// The initiator of instance `k`.
    #[must_use]
    pub fn initiator(n: usize, k: u64) -> ProcessId {
        ProcessId::new((k % n as u64) as usize)
    }
}

impl Instance for TrbInstance {
    type Tag = ();
    type Msg = TrbMsg<u64>;

    fn start(me: ProcessId, n: usize, k: u64) -> Self {
        let initiator = Self::initiator(n, k);
        let payload = (me == initiator).then_some(k);
        Self {
            initiator,
            trb: TrbProcess::new(me, n, initiator, payload),
        }
    }

    fn tag(&self) {}

    fn absorb(&mut self, (): ()) {}

    fn step(
        &mut self,
        input: Option<(ProcessId, &TrbMsg<u64>)>,
        suspects: ProcessSet,
        out: &mut Outbox<TrbMsg<u64>>,
    ) -> Option<ProcessSet> {
        // nil delivered: suspect the initiator, permanently.
        let delivered = self.trb.step(input, suspects, out)?;
        Some(match delivered {
            None => ProcessSet::singleton(self.initiator),
            Some(_) => ProcessSet::empty(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initiator_rotates_round_robin() {
        assert_eq!(TrbInstance::initiator(3, 0), p(0));
        assert_eq!(TrbInstance::initiator(3, 4), p(1));
        assert_eq!(TrbInstance::initiator(3, 5), p(2));
    }

    #[test]
    fn fresh_emulation_suspects_nobody() {
        let e = TrbEmulation::new(p(1), 3);
        assert!(e.output_p().is_empty());
        assert_eq!(e.completed(), 0);
    }
}
