//! Dynamic companion to `rfd-lint`'s wire-safety rule: property fuzz
//! feeding arbitrary and mutated datagrams into the runtime nodes.
//!
//! The static pass proves no `unwrap`/`panic!`/unchecked indexing is
//! *written* in datagram-facing code; these properties check the same
//! contract *observably* — an attacker-controlled datagram never
//! panics a [`DetectorNode`], [`MembershipNode`] or [`DecisionService`]
//! (the three callers of the crate's one receive loop), rejected frames
//! leave node state untouched, and every rejection is charged to the
//! `malformed_frames` counter exactly once. This regression-pins the PR 5
//! out-of-range `ProcessId` panic family: a heartbeat whose sender
//! field exceeds the cluster size used to abort the process.
//!
//! The second battery pins the wire path's **idempotency** — the
//! property the weather catalogue's duplication and reordering planes
//! lean on: re-delivered or out-of-order `Decided`, `SyncReply` and
//! `SnapshotReply` frames are no-ops (no double-applied log entries,
//! no re-triggered snapshot installs), so a duplicating, reordering
//! network can never talk a replica out of agreement.

use proptest::prelude::*;
use rfd_algo::consensus::RotatingMsg;
use rfd_core::ProcessId;
use rfd_net::bytes::Bytes;
use rfd_net::clock::{Clock, Nanos, VirtualClock};
use rfd_net::codec::{
    decode_borrowed, encode, Command, ConsensusFrame, DecidedMsg, Heartbeat, SnapshotReply,
    SnapshotRequest, SyncReply, SyncRequest, ViewChange, WireMsg, WireView,
};
use rfd_net::detector::DetectorNode;
use rfd_net::estimator::{ArrivalEstimator, ChenEstimator};
use rfd_net::membership::MembershipNode;
use rfd_net::service::{CompactionPolicy, DecisionService};
use rfd_net::transport::{Endpoint, InMemoryNetwork, NetworkConfig, Transport};

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

fn chen() -> ChenEstimator {
    ChenEstimator::new(ms(150), 16, ms(600))
}

const N: usize = 3;

/// The three node types behind one face: each is `p0` of its own
/// three-process network, fed by an attacker at `p1`.
enum AnyNode {
    Detector(DetectorNode<ChenEstimator, Endpoint, VirtualClock>),
    Membership(MembershipNode<ChenEstimator, Endpoint, VirtualClock>),
    Service(Box<DecisionService<ChenEstimator, Endpoint, VirtualClock>>),
}

/// One node under test with its clock and the attacker's endpoint.
struct Rig {
    node: AnyNode,
    clock: VirtualClock,
    attacker: Endpoint,
}

impl Rig {
    /// One rig per node type, in `[detector, membership, service]` order.
    fn all() -> [Rig; 3] {
        [0, 1, 2].map(|kind| {
            let clock = VirtualClock::new();
            let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
            let (me, c) = (net.endpoint(p(0)), clock.clone());
            let node = match kind {
                0 => AnyNode::Detector(DetectorNode::new(N, chen(), me, c, ms(50))),
                1 => AnyNode::Membership(MembershipNode::new(N, chen(), me, c, ms(50))),
                _ => AnyNode::Service(Box::new(DecisionService::new(N, chen(), me, c, ms(50)))),
            };
            Rig {
                node,
                attacker: net.endpoint(p(1)),
                clock,
            }
        })
    }

    /// Delivers one datagram from the attacker and polls the node.
    fn feed(&mut self, payload: Bytes) {
        self.attacker.send(p(0), payload);
        self.clock.advance(ms(2));
        match &mut self.node {
            AnyNode::Detector(node) => drop(node.poll()),
            AnyNode::Membership(node) => node.poll(),
            AnyNode::Service(node) => node.poll_into(&mut Vec::new()),
        }
    }

    fn malformed_frames(&self) -> u64 {
        match &self.node {
            AnyNode::Detector(node) => node.malformed_frames(),
            AnyNode::Membership(node) => node.malformed_frames(),
            AnyNode::Service(node) => node.malformed_frames(),
        }
    }

    /// Everything a received frame can change that the node's public
    /// surface shows: whether `p1` was ever heard, the view, the halt
    /// flag, the pending pool and the log length — as applicable.
    fn observed(&self) -> String {
        match &self.node {
            AnyNode::Detector(node) => {
                let heard = node
                    .detector()
                    .monitor(p(1))
                    .map(|est| est.deadline().is_some());
                format!("heard p1: {heard:?}")
            }
            AnyNode::Membership(node) => format!(
                "heard: {} view: {:?} installed: {} halted: {}",
                node.trust_horizon().is_some(),
                node.view(),
                node.views_installed(),
                node.is_halted()
            ),
            AnyNode::Service(node) => format!(
                "view: {:?} pending: {} log: {} halted: {}",
                node.view(),
                node.pending(),
                node.log().len(),
                node.is_halted()
            ),
        }
    }
}

/// One `SyncReply` worth of stream: `(start, entries)` with entries as
/// `(value, view, members)` triples.
type ChunkFrame = (u64, Vec<(u64, u64, u128)>);

/// One arbitrary-but-valid wire message from flattened scalars (the
/// same selector scheme as `codec_prop.rs`).
fn wire_msg(selector: u8, a: u64, b: u64, wide: u128, entries: Vec<(u64, u64, u128)>) -> WireMsg {
    match selector % 9 {
        0 => WireMsg::Heartbeat(Heartbeat {
            sender: a as u16,
            seq: b,
            sent_at: Nanos::from_nanos(a ^ b),
        }),
        1 => WireMsg::ViewChange(ViewChange {
            view_id: a,
            members: wide,
        }),
        2 => WireMsg::Command(Command { value: a }),
        3 => WireMsg::Consensus(ConsensusFrame {
            slot: a,
            msg: match b % 5 {
                0 => RotatingMsg::Estimate {
                    r: b,
                    ts: a.wrapping_add(b),
                    v: wide as u64,
                },
                1 => RotatingMsg::Propose {
                    r: b,
                    v: wide as u64,
                },
                2 => RotatingMsg::Ack { r: b },
                3 => RotatingMsg::Nack { r: b },
                _ => RotatingMsg::Decide(wide as u64),
            },
        }),
        4 => WireMsg::Decided(DecidedMsg {
            index: a,
            view_id: b,
            view_members: wide,
            value: a.wrapping_mul(3),
        }),
        5 => WireMsg::SyncRequest(SyncRequest { from_index: a }),
        6 => WireMsg::SyncReply(SyncReply { start: a, entries }),
        7 => WireMsg::SnapshotRequest(SnapshotRequest { from_index: a }),
        _ => WireMsg::SnapshotReply(SnapshotReply {
            upto: a,
            digest: b,
            view_id: a ^ b,
            view_members: wide,
            entries,
        }),
    }
}

proptest! {
    /// Undecodable datagrams, the same corpus into all three node
    /// types: no panic, no state change, and every rejected datagram
    /// charged to `malformed_frames` exactly once.
    #[test]
    fn membership_rejects_arbitrary_bytes_without_state_change(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 1..24),
    ) {
        let mut rigs = Rig::all();
        let before = rigs.each_ref().map(Rig::observed);
        let mut rejected = 0u64;
        for mut bytes in frames {
            // Steer the rare accidentally-valid frame back to garbage
            // by breaking its magic; skip it if it somehow survives.
            if decode_borrowed(&bytes).is_ok() {
                match bytes.first_mut() {
                    Some(b0) => *b0 ^= 0xFF,
                    None => continue,
                }
            }
            if decode_borrowed(&bytes).is_ok() {
                continue;
            }
            rejected += 1;
            for rig in &mut rigs {
                rig.feed(Bytes::from(bytes.clone()));
            }
        }
        for (rig, before) in rigs.iter().zip(before) {
            prop_assert_eq!(rig.malformed_frames(), rejected);
            prop_assert_eq!(rig.observed(), before);
        }
    }

    /// Decodable heartbeats with wild sender fields — the exact PR 5
    /// panic family — are dropped, counted, and change nothing.
    #[test]
    fn membership_drops_out_of_range_heartbeat_senders(
        senders in prop::collection::vec(any::<u16>(), 1..16),
    ) {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
        let mut node = MembershipNode::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
        let attacker = net.endpoint(p(1));
        let view_before = node.view();
        for (seq, &sender) in senders.iter().enumerate() {
            attacker.send(
                p(0),
                encode(&WireMsg::Heartbeat(Heartbeat {
                    sender,
                    seq: seq as u64,
                    sent_at: clock.now(),
                })),
            );
            clock.advance(ms(2));
            node.poll();
        }
        let wild = senders.iter().filter(|&&s| usize::from(s) >= N).count() as u64;
        prop_assert_eq!(node.malformed_frames(), wild);
        prop_assert_eq!(node.view(), view_before);
        prop_assert!(!node.is_halted());
    }

    /// Bit-flipped frames of every wire kind into a full service node:
    /// never a panic; a flip that breaks decoding is counted and leaves
    /// the decision log untouched. (A flip that still decodes may
    /// legally change state — the property there is survival.)
    #[test]
    fn service_survives_bit_flipped_frames(
        selector in 0u8..9,
        a in any::<u64>(),
        b in any::<u64>(),
        wide in any::<u128>(),
        entries in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u128>()), 0..8),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
        let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
        let attacker = net.endpoint(p(1));
        let mut bytes = encode(&wire_msg(selector, a, b, wide, entries)).to_vec();
        let ix = flip_at % bytes.len();
        bytes[ix] ^= 1 << flip_bit;
        let still_decodes = decode_borrowed(&bytes).is_ok();
        let log_before = node.log().len();
        attacker.send(p(0), Bytes::from(bytes));
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
        if !still_decodes {
            prop_assert_eq!(node.malformed_frames(), 1);
            prop_assert_eq!(node.log().len(), log_before);
            prop_assert!(!node.is_halted());
        }
    }

    /// Unsolicited snapshot replies — forged summaries with
    /// attacker-chosen (possibly astronomical) `upto` — are ignored
    /// outright: the receiver never asked for a suffix, so the log
    /// keeps its base and length and no arena inflates. This is
    /// the compaction analogue of the `SLOT_HORIZON` pin: installation
    /// cost must never scale with an attacker-chosen index.
    #[test]
    fn service_ignores_unsolicited_snapshot_replies(
        upto in any::<u64>(),
        digest in any::<u64>(),
        view_id in any::<u64>(),
        wide in any::<u128>(),
        entries in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u128>()), 0..32),
    ) {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
        let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
        let attacker = net.endpoint(p(1));
        let base_before = node.log().first_index();
        let len_before = node.log().len();
        attacker.send(
            p(0),
            encode(&WireMsg::SnapshotReply(SnapshotReply {
                upto,
                digest,
                view_id,
                view_members: wide,
                entries,
            })),
        );
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
        prop_assert_eq!(node.log().first_index(), base_before);
        prop_assert_eq!(node.log().len(), len_before);
        prop_assert_eq!(node.log().snapshots_installed(), 0);
        prop_assert!(!node.is_halted());
    }

    /// Forged snapshot *requests* with arbitrary `from_index` never
    /// panic the responder and never make it serve below its base as a
    /// suffix (the reply is either a snapshot or in-range chunks).
    #[test]
    fn service_survives_arbitrary_snapshot_requests(
        from_index in any::<u64>(),
    ) {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
        let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
        let attacker = net.endpoint(p(1));
        attacker.send(
            p(0),
            encode(&WireMsg::SnapshotRequest(SnapshotRequest { from_index })),
        );
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
        prop_assert!(!node.is_halted());
        prop_assert_eq!(node.malformed_frames(), 0);
    }

    /// A chunked `SyncReply` stream survives **any** interleaving with
    /// duplicates: chunks arriving above the tail buffer in the bounded
    /// future window, re-deliveries merge nothing, and once every chunk
    /// has arrived at least once the log holds exactly the original
    /// sequence — no entry applied twice, whatever the weather did to
    /// the stream.
    #[test]
    fn sync_chunk_streams_converge_under_any_duplication_and_reordering(
        total in 4u64..24,
        chunk in 1u64..5,
        dups in prop::collection::vec(any::<bool>(), 24),
        shuffle_seed in any::<u64>(),
    ) {
        let clock = VirtualClock::new();
        let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
        let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
        let peer = net.endpoint(p(1));
        let members = (1u128 << N) - 1;
        let values: Vec<u64> = (0..total).map(|i| 1_000 + i).collect();
        // Chunk the stream, duplicate some chunks, then shuffle with a
        // seeded LCG — a worst-case but complete delivery order.
        let mut frames: Vec<ChunkFrame> = values
            .chunks(chunk as usize)
            .enumerate()
            .map(|(ix, vs)| {
                (
                    ix as u64 * chunk,
                    vs.iter().map(|&v| (v, 1, members)).collect(),
                )
            })
            .collect();
        let base_chunks = frames.len();
        for ix in 0..base_chunks {
            if *dups.get(ix).unwrap_or(&false) {
                frames.push(frames[ix].clone());
            }
        }
        let mut rng = shuffle_seed | 1;
        for i in (1..frames.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            frames.swap(i, (rng >> 33) as usize % (i + 1));
        }
        for (start, entries) in frames {
            peer.send(p(0), encode(&WireMsg::SyncReply(SyncReply { start, entries })));
            clock.advance(ms(2));
            node.poll_into(&mut Vec::new());
        }
        prop_assert_eq!(node.log().len(), total);
        let decided: Vec<u64> = node.log().suffix(0).iter().map(|d| d.value).collect();
        prop_assert_eq!(decided, values);
        prop_assert_eq!(node.malformed_frames(), 0);
        prop_assert_eq!(node.log().snapshots_installed(), 0);
        prop_assert!(!node.is_halted());
    }
}

/// A batch is datagram framing, not a protocol message: every node
/// type observes a `[Heartbeat, ViewChange, Command]` batch exactly as
/// it observes the same three frames sent singly — and when the
/// `ViewChange` excludes the receiver (a merge-less node halts on
/// that), the halt stops the rest of the batch, as it stops every later
/// datagram.
#[test]
fn a_batch_is_observed_as_its_frames_sent_singly_and_a_halt_stops_it() {
    let members = |ids: &[usize]| ids.iter().fold(0u128, |acc, ix| acc | 1 << ix);
    for (view, halts) in [(members(&[0, 1]), false), (members(&[1, 2]), true)] {
        let frames = vec![
            WireMsg::Heartbeat(Heartbeat {
                sender: 1,
                seq: 0,
                sent_at: Nanos::ZERO,
            }),
            WireMsg::ViewChange(ViewChange {
                view_id: 1,
                members: view,
            }),
            WireMsg::Command(Command { value: 77 }),
        ];
        let mut batched = Rig::all();
        let mut single = Rig::all();
        for rig in &mut batched {
            rig.feed(encode(&WireMsg::Batch(frames.clone())));
        }
        for rig in &mut single {
            for frame in &frames {
                rig.feed(encode(frame));
            }
        }
        for (batched, single) in batched.iter().zip(&single) {
            assert_eq!(batched.observed(), single.observed(), "halts: {halts}");
            assert_eq!(batched.malformed_frames(), 0);
        }
        let [detector, membership, service] = batched.each_ref().map(Rig::observed);
        assert_eq!(detector, "heard p1: Some(true)");
        assert!(
            membership.contains(&format!("halted: {halts}")),
            "{membership}"
        );
        // The command follows the view change: learned unless the view
        // change halted the node first.
        let pending = usize::from(!halts);
        assert!(
            service.contains(&format!("pending: {pending} log: 0 halted: {halts}")),
            "{service}"
        );
    }
}

/// Re-delivered `Decided` relays append exactly once: the second and
/// third copies land below the tail and fall through as no-ops, and a
/// stale re-delivery after later appends cannot rewrite history.
#[test]
fn duplicated_decided_relays_append_once() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
    let peer = net.endpoint(p(1));
    let members = (1u128 << N) - 1;
    let relay = |index: u64, value: u64| {
        encode(&WireMsg::Decided(DecidedMsg {
            index,
            view_id: 1,
            view_members: members,
            value,
        }))
    };
    // Three copies of index 0, then two of index 1, then a stale echo
    // of index 0 again — the weather's duplication plane in miniature.
    for frame in [
        relay(0, 7),
        relay(0, 7),
        relay(0, 7),
        relay(1, 8),
        relay(1, 8),
        relay(0, 7),
    ] {
        peer.send(p(0), frame);
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
    }
    assert_eq!(node.log().len(), 2, "each index appended exactly once");
    let decided: Vec<u64> = node.log().suffix(0).iter().map(|d| d.value).collect();
    assert_eq!(decided, vec![7, 8]);
    assert_eq!(node.malformed_frames(), 0);
    assert!(!node.is_halted());
}

/// Re-delivered `SnapshotReply` frames install exactly once: the first
/// copy answers the node's own `SyncRequest` and closes the gate it
/// opened, so the duplicate (and any later forgery, however large its
/// `upto`) is dropped without touching the log.
#[test]
fn duplicated_snapshot_replies_install_once() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
    let peer = net.endpoint(p(1));
    // A relay ahead of the empty log makes the node ask the relay's
    // sender for the suffix from its tail…
    peer.send(
        p(0),
        encode(&WireMsg::Decided(DecidedMsg {
            index: 4,
            view_id: 1,
            view_members: (1u128 << N) - 1,
            value: 7,
        })),
    );
    clock.advance(ms(2));
    node.poll_into(&mut Vec::new());
    clock.advance(ms(2));
    let mut inbox = Vec::new();
    peer.recv_batch(&mut inbox);
    assert!(
        inbox.iter().any(|d| matches!(
            decode_borrowed(&d.payload),
            Ok(WireView::SyncRequest(SyncRequest { from_index: 0 }))
        )),
        "the node asks from its tail"
    );
    // …then the reply arrives twice (duplication plane), followed by a
    // bigger forgery (stale reordered reply from another epoch).
    let reply = |upto: u64| {
        encode(&WireMsg::SnapshotReply(SnapshotReply {
            upto,
            digest: 0xDEAD_BEEF,
            view_id: 1,
            view_members: (1u128 << N) - 1,
            entries: Vec::new(),
        }))
    };
    for frame in [reply(5), reply(5), reply(100)] {
        peer.send(p(0), frame);
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
    }
    assert_eq!(node.log().snapshots_installed(), 1, "one ask, one install");
    assert_eq!(node.log().first_index(), 5, "the duplicate changed nothing");
    assert_eq!(node.log().len(), 5);
    assert!(!node.is_halted());
}

/// The responder counters count what went out, once: a pure-ack
/// `SyncRequest` from the node's tail serves nothing, a request within
/// the retained tail adds exactly the bytes of the `SyncReply`
/// datagrams the requester receives, and a below-base `SyncRequest` —
/// or a below-base `SnapshotRequest`, which asks the same — adds one
/// snapshot and exactly its reply's bytes.
#[test]
fn served_transfers_are_counted_by_the_bytes_the_requester_receives() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50))
        .with_compaction(CompactionPolicy::retain_last(2));
    let peers = [net.endpoint(p(1)), net.endpoint(p(2))];
    let members = (1u128 << N) - 1;
    // Every peer relays every decision: each acks the whole log, so the
    // node compacts everything but its two-entry retained tail at its
    // next beat.
    for index in 0..10 {
        for peer in &peers {
            peer.send(
                p(0),
                encode(&WireMsg::Decided(DecidedMsg {
                    index,
                    view_id: 0,
                    view_members: members,
                    value: 100 + index,
                })),
            );
        }
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
    }
    while node.log().first_index() == 0 && clock.now() < ms(200) {
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
    }
    assert_eq!((node.log().first_index(), node.log().len()), (8, 10));
    let requester = &peers[0];
    // Delivers one request from the requester and returns the encoded
    // lengths of the replies of `tag` it receives (its inbox emptied
    // first of the node's relays and heartbeats).
    let mut ask = |request: WireMsg, tag: fn(&WireView<'_>) -> bool| {
        clock.advance(ms(2));
        requester.recv_batch(&mut Vec::new());
        requester.send(p(0), encode(&request));
        clock.advance(ms(2));
        node.poll_into(&mut Vec::new());
        clock.advance(ms(2));
        let mut inbox = Vec::new();
        requester.recv_batch(&mut inbox);
        let replies: Vec<u64> = inbox
            .iter()
            .filter(|d| decode_borrowed(&d.payload).is_ok_and(|frame| tag(&frame)))
            .map(|d| d.payload.len() as u64)
            .collect();
        (replies, node.sync_bytes_served(), node.snapshots_served())
    };
    let sync_reply = |frame: &WireView<'_>| matches!(frame, WireView::SyncReply(_));
    let snapshot_reply = |frame: &WireView<'_>| matches!(frame, WireView::SnapshotReply(_));
    let sync = |from_index| WireMsg::SyncRequest(SyncRequest { from_index });

    // From the node's tail: a pure ack, nothing served.
    let (replies, bytes, snapshots) = ask(sync(10), sync_reply);
    assert_eq!((replies.len(), bytes, snapshots), (0, 0, 0));
    // Below the base: one snapshot and its reply's bytes.
    let (replies, bytes, snapshots) = ask(sync(3), snapshot_reply);
    assert_eq!(replies.len(), 1);
    assert_eq!((bytes, snapshots), (replies[0], 1));
    let snapshot_bytes = bytes;
    // Within the retained tail: exactly the suffix chunks' bytes.
    let (replies, bytes, snapshots) = ask(sync(8), sync_reply);
    assert!(!replies.is_empty());
    assert_eq!(
        (bytes, snapshots),
        (snapshot_bytes + replies.iter().sum::<u64>(), 1)
    );
    let served_bytes = bytes;
    // Below the base, by the older tag: the same answer.
    let request = WireMsg::SnapshotRequest(SnapshotRequest { from_index: 3 });
    let (replies, bytes, snapshots) = ask(request, snapshot_reply);
    assert_eq!(replies.len(), 1);
    assert_eq!((bytes, snapshots), (served_bytes + replies[0], 2));
    assert_eq!(node.malformed_frames(), 0);
}

/// In-horizon consensus frames for a slot not open yet are held for its
/// replay — up to a fixed number. A valid peer flooding well-formed
/// frames for slot `len + 1` fills that buffer and no more: the overflow
/// is charged to `malformed_frames`, and the tail slot still decides.
#[test]
fn early_consensus_frames_are_held_up_to_a_cap_and_counted_beyond_it() {
    let clock = VirtualClock::new();
    let net = InMemoryNetwork::new(N, NetworkConfig::reliable(ms(1), ms(2)), clock.clone());
    let mut node = DecisionService::new(N, chen(), net.endpoint(p(0)), clock.clone(), ms(50));
    let peer = net.endpoint(p(1));
    let view = node.view();
    let frame = |slot: u64, msg: RotatingMsg<u64>| {
        encode(&WireMsg::Consensus(ConsensusFrame { slot, msg }))
    };
    for v in 0..2_000 {
        let msg = RotatingMsg::Estimate { r: 1, ts: 0, v };
        peer.send(p(0), frame(node.log().len() + 1, msg));
    }
    clock.advance(ms(2));
    node.poll_into(&mut Vec::new());
    assert!(node.malformed_frames() > 0, "the overflow is counted");
    assert!(node.malformed_frames() < 2_000, "what fits is held");
    assert_eq!((node.log().len(), node.view()), (0, view));
    assert!(!node.is_halted());
    // An honest slot 0: p0 coordinates round 0, proposes as it opens,
    // acks itself, and p1's ack makes the majority.
    assert!(node.propose(7));
    node.poll_into(&mut Vec::new());
    peer.send(p(0), frame(0, RotatingMsg::Ack { r: 0 }));
    clock.advance(ms(2));
    node.poll_into(&mut Vec::new());
    let decided: Vec<u64> = node.log().suffix(0).iter().map(|d| d.value).collect();
    assert_eq!(decided, vec![7]);
    assert_eq!(node.view(), view);
}
