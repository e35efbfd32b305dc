//! The `P<`-based *correct-restricted* consensus algorithm (§6.2).
//!
//! §6.2 separates uniform from correct-restricted consensus: with the
//! Partially Perfect class `P<` (strong accuracy, but only higher-index
//! processes must detect a crash) there is an algorithm — after
//! Guerraoui's atomic-commit construction \[8\] — that solves
//! correct-restricted consensus for **any** number of failures, although
//! `P<` is strictly weaker than `P`. Uniform agreement, however, can
//! fail: a low-index process may decide its own value and crash before
//! anyone hears it. Experiment E4 exhibits exactly that run.
//!
//! Protocol for process `pᵢ`: wait until, for every `j < i`, either
//! `pⱼ`'s decision has been received or `pⱼ` is suspected; then decide
//! the decision of the **highest-index** process heard from (falling back
//! to the own proposal if none), and announce it. The chain argument:
//! every decider above the lowest correct process `c` transitively adopts
//! `c`'s decision, because `c` can never be suspected (strong accuracy)
//! and so must be heard.

use super::{ConsensusCore, Outbox};
use rfd_core::{ProcessId, ProcessSet};

/// Messages of the ranked algorithm: a process announces its decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankedMsg<V> {
    /// The announcer's decision.
    pub decision: V,
}

/// `P<`-based correct-restricted consensus state machine.
#[derive(Clone, Debug)]
pub struct RankedConsensus<V> {
    me: ProcessId,
    proposal: V,
    /// Decisions received from lower-index processes.
    heard: Vec<Option<V>>,
    decision: Option<V>,
}

impl<V: Clone + Eq + Ord> ConsensusCore for RankedConsensus<V> {
    type Msg = RankedMsg<V>;
    type Val = V;

    fn new(me: ProcessId, n: usize, proposal: V) -> Self {
        assert!(n >= 1, "need at least one process");
        Self {
            me,
            proposal,
            heard: vec![None; n],
            decision: None,
        }
    }

    fn step(
        &mut self,
        input: Option<(ProcessId, &RankedMsg<V>)>,
        suspects: ProcessSet,
        out: &mut Outbox<RankedMsg<V>>,
    ) -> Option<V> {
        if let Some((from, msg)) = input {
            // Only lower-index announcements matter for the wait.
            self.heard[from.index()].get_or_insert_with(|| msg.decision.clone());
        }
        if self.decision.is_some() {
            return None;
        }
        let all_resolved = (0..self.me.index())
            .all(|j| self.heard[j].is_some() || suspects.contains(ProcessId::new(j)));
        if !all_resolved {
            return None;
        }
        let adopted = (0..self.me.index())
            .rev()
            .find_map(|j| self.heard[j].clone())
            .unwrap_or_else(|| self.proposal.clone());
        self.decision = Some(adopted.clone());
        out.broadcast(RankedMsg {
            decision: adopted.clone(),
        });
        Some(adopted)
    }

    fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn p0_decides_immediately_with_its_own_value() {
        let mut c: RankedConsensus<u64> = RankedConsensus::new(p(0), 3, 10);
        let mut out = Outbox::new(p(0), 3);
        assert_eq!(c.step(None, ProcessSet::empty(), &mut out), Some(10));
        assert_eq!(out.drain().len(), 3);
    }

    #[test]
    fn higher_process_adopts_highest_heard_decision() {
        let mut c: RankedConsensus<u64> = RankedConsensus::new(p(2), 3, 30);
        let mut out = Outbox::new(p(2), 3);
        // Hears p0's decision but still waits for p1.
        assert_eq!(
            c.step(
                Some((p(0), &RankedMsg { decision: 10 })),
                ProcessSet::empty(),
                &mut out
            ),
            None
        );
        // Hears p1 (which had suspected p0 and decided 20): adopts p1's —
        // the highest-index — decision, matching the chain argument.
        let mut out2 = Outbox::new(p(2), 3);
        assert_eq!(
            c.step(
                Some((p(1), &RankedMsg { decision: 20 })),
                ProcessSet::empty(),
                &mut out2
            ),
            Some(20)
        );
    }

    #[test]
    fn suspicion_substitutes_for_a_missing_decision() {
        let mut c: RankedConsensus<u64> = RankedConsensus::new(p(1), 2, 20);
        let mut out = Outbox::new(p(1), 2);
        assert_eq!(c.step(None, ProcessSet::empty(), &mut out), None);
        let mut out2 = Outbox::new(p(1), 2);
        assert_eq!(
            c.step(None, ProcessSet::singleton(p(0)), &mut out2),
            Some(20)
        );
    }

    #[test]
    fn decides_at_most_once() {
        let mut c: RankedConsensus<u64> = RankedConsensus::new(p(0), 2, 1);
        let mut out = Outbox::new(p(0), 2);
        assert_eq!(c.step(None, ProcessSet::empty(), &mut out), Some(1));
        let mut out2 = Outbox::new(p(0), 2);
        assert_eq!(c.step(None, ProcessSet::empty(), &mut out2), None);
        assert!(out2.drain().is_empty());
    }
}
