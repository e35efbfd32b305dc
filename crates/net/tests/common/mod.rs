//! The one generator of valid wire frames, shared by the codec
//! properties (`codec_prop.rs`) and the node fuzz battery
//! (`wire_fuzz.rs`): every one of the ten frame kinds, a one-level
//! [`WireMsg::Batch`] of generated sub-frames included.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use rfd_algo::consensus::RotatingMsg;
use rfd_net::clock::Nanos;
use rfd_net::codec::{
    Command, ConsensusFrame, DecidedMsg, Heartbeat, SnapshotReply, SnapshotRequest, SyncReply,
    SyncRequest, ViewChange, WireMsg, MAX_SYNC_ENTRIES,
};

/// The kinds a batch may carry: every kind but the batch itself.
const SUB_FRAME_KINDS: u8 = 9;

/// Sub-frames per generated batch, at most.
const MAX_GENERATED_SUB_FRAMES: usize = 8;

/// An arbitrary valid frame of any of the ten kinds, each about equally
/// likely.
pub fn wire_frame() -> BoxedStrategy<WireMsg> {
    (0..=SUB_FRAME_KINDS)
        .prop_flat_map(|kind| {
            if kind == SUB_FRAME_KINDS {
                prop::collection::vec(sub_frame(), 0..=MAX_GENERATED_SUB_FRAMES)
                    .prop_map(WireMsg::Batch)
                    .boxed()
            } else {
                frame_of_kind(kind)
            }
        })
        .boxed()
}

/// An arbitrary valid frame of any kind a batch may carry.
pub fn sub_frame() -> BoxedStrategy<WireMsg> {
    (0..SUB_FRAME_KINDS).prop_flat_map(frame_of_kind).boxed()
}

/// Arbitrary fields for the frame kind `kind` (below
/// [`SUB_FRAME_KINDS`]).
fn frame_of_kind(kind: u8) -> BoxedStrategy<WireMsg> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u128>(),
        prop::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u128>()),
            0..=MAX_SYNC_ENTRIES,
        ),
    )
        .prop_map(move |(a, b, wide, entries)| match kind {
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
        })
        .boxed()
}
