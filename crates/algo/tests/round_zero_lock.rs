//! A value locked in round 0 must outrank a value nobody adopted.
//!
//! The schedule: `p0` proposes, a majority (`p0`, `p1`, `p2`) acks, `p0`
//! announces the decision and crashes before any copy of the
//! announcement is delivered. `p3` and `p4`, which never saw the
//! proposal, suspect `p0` and move on; round 1's coordinator `p1` hears
//! a majority — itself, `p3`, `p4` — of which only its own estimate is
//! the locked value. Uniform agreement (a crashed decider counts) rests
//! on `p1` picking it, and `p1` picks by timestamp: adoption in round
//! `r` must therefore stamp `r + 1`, so that round 0's lock is not the
//! `0` of a never-adopted estimate.

use rfd_algo::consensus::{ConsensusCore, Outbox, RotatingConsensus, RotatingMsg};
use rfd_core::{ProcessId, ProcessSet};

const N: usize = 5;

type Core = RotatingConsensus<u64>;
type Msg = RotatingMsg<u64>;

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// One step of `core`, returning what it sent.
fn step(
    core: &mut Core,
    me: usize,
    input: Option<(usize, Msg)>,
    suspects: ProcessSet,
) -> Vec<(ProcessId, Msg)> {
    let mut out = Outbox::new(p(me), N);
    let input = input.map(|(from, msg)| (p(from), msg));
    core.step(
        input.as_ref().map(|(from, msg)| (*from, msg)),
        suspects,
        &mut out,
    );
    out.drain()
}

/// The round-1 estimate among `sent`, which goes to coordinator `p1`.
fn round_one_estimate(sent: Vec<(ProcessId, Msg)>) -> Msg {
    sent.into_iter()
        .find_map(|(to, m)| (to == p(1) && matches!(m, Msg::Estimate { r: 1, .. })).then_some(m))
        .expect("entering round 1 sends its coordinator an estimate")
}

#[test]
fn round_one_proposes_the_value_a_majority_acked_in_round_zero() {
    let mut cores: Vec<Core> = (0..N).map(|i| Core::new(p(i), N, 10 + i as u64)).collect();
    let none = ProcessSet::empty();

    // p0 opens: round 0 has no phase 1, it proposes its own 10.
    let v = 10;
    let propose = Msg::Propose { r: 0, v };
    let sent = step(&mut cores[0], 0, None, none);
    assert_eq!(sent.len(), N);
    assert!(sent.iter().all(|(_, m)| *m == propose), "{sent:?}");

    // The proposal reaches p0, p1 and p2; each acks, enters round 1 and
    // sends its estimate — now the adopted 10 — to that round's
    // coordinator p1. Only p1's own arrives.
    let mut to_p1 = Vec::new();
    for (i, core) in cores.iter_mut().enumerate().take(3) {
        let sent = step(core, i, Some((0, propose.clone())), none);
        assert!(sent.contains(&(p(0), Msg::Ack { r: 0 })), "p{i}: {sent:?}");
        assert_eq!(core.round(), 1);
        if i == 1 {
            to_p1.push((1, round_one_estimate(sent)));
        }
    }
    // All three acks reach p0: it announces the decision — and crashes
    // with every copy of the announcement still in flight.
    let mut announced = Vec::new();
    for i in 0..3 {
        announced.extend(step(&mut cores[0], 0, Some((i, Msg::Ack { r: 0 })), none));
    }
    let decides = announced
        .iter()
        .filter(|(_, m)| *m == Msg::Decide(v))
        .count();
    assert_eq!(decides, N, "p0 announces Decide({v}): {announced:?}");

    // p3 and p4 never saw the proposal: they suspect p0, nack, and send
    // their still-initial estimates to round 1's coordinator p1.
    let crashed = ProcessSet::singleton(p(0));
    for i in [3, 4] {
        let sent = step(&mut cores[i], i, None, crashed);
        assert!(sent.contains(&(p(0), Msg::Nack { r: 0 })), "p{i}: {sent:?}");
        to_p1.push((i, round_one_estimate(sent)));
    }

    // p1 hears p1, p3, p4 — a majority holding the locked value once.
    let mut proposals = Vec::new();
    for (from, est) in to_p1 {
        let sent = step(&mut cores[1], 1, Some((from, est)), crashed);
        proposals.extend(sent.into_iter().filter_map(|(_, m)| match m {
            Msg::Propose { r: 1, v } => Some(v),
            _ => None,
        }));
    }
    assert_eq!(
        proposals,
        vec![v; N],
        "p0 announced Decide({v}); round 1 must propose it again"
    );
}
