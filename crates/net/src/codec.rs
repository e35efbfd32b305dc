//! Wire format for heartbeats, membership and decision-service messages.
//!
//! One magic, one tag byte per message kind. Decoding is total: any byte
//! string returns `Ok` or a [`DecodeError`] — never a panic, never an
//! attacker-controlled allocation (list lengths are validated against
//! both a hard cap and the bytes actually present). The service-layer
//! messages (tags 3–7) carry the live replicated log:
//! [`Command`] gossips client submissions, [`ConsensusFrame`] wraps one
//! slot-scoped message of the rotating-coordinator consensus,
//! [`DecidedMsg`] relays decisions TRB-style, and
//! [`SyncRequest`]/[`SyncReply`] implement post-heal state transfer.
//! Tag 8 is a [`Batch`](WireMsg::Batch): every frame a node owes one
//! destination in one tick, packed into a single datagram. Tags 9–10
//! ([`SnapshotRequest`]/[`SnapshotReply`]) implement fast rejoin: a
//! rejoiner whose log fell behind the compacted base receives a
//! view-stamped prefix summary instead of a replay of history. The
//! full field-layout reference lives in `docs/WIRE.md`.
//!
//! ## Allocation-free paths and the buffer-reuse contract
//!
//! The codec has two tiers:
//!
//! * **Owned**: [`encode`] returns a fresh [`Bytes`]; [`decode`] returns
//!   a [`WireMsg`], allocating only for variants with variable-length
//!   payloads ([`SyncReply`], [`Batch`](WireMsg::Batch)).
//! * **Zero-copy**: [`encode_into`] writes into a caller-supplied
//!   [`BytesMut`] — it **clears the buffer first** (the frame replaces
//!   any previous content; it never appends), so a warmed buffer is
//!   reused allocation-free. [`decode_borrowed`] returns a
//!   [`WireView`] that borrows variable-length payloads from the
//!   datagram instead of copying them out.
//!
//! The owned functions are thin shims over the zero-copy tier and
//! accept/produce byte-identical frames.

// Wire-safety: no datagram may panic this module (ARCHITECTURE.md,
// "Determinism & wire-safety invariants"); its unit tests are exempt.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use crate::clock::Nanos;
use crate::transport::Datagram;
use bytes::{Bytes, BytesMut};
use rfd_algo::consensus::RotatingMsg;
use rfd_core::{ProcessId, ProcessSet};
use std::ops::ControlFlow;

const MAGIC: u16 = 0xFD02; // "failure detector, DSN'02"

/// The wire tag constants — one per frame kind, single source of truth.
///
/// Every tag must appear in the encode dispatch, in
/// [`decode_borrowed`]'s match, as a [`WireMsg`]/[`WireView`] variant,
/// and as a row of the tag tables in ARCHITECTURE.md and `docs/WIRE.md`.
/// The compiler holds the enums' matches exhaustive; the unit test
/// `every_tag_is_encoded_decoded_and_documented` checks each variant's
/// tag byte and round trip against these constants and both tables, so
/// a new tag cannot ship half-wired.
pub mod tags {
    /// [`Heartbeat`](super::Heartbeat) liveness evidence.
    pub const HEARTBEAT: u8 = 1;
    /// [`ViewChange`](super::ViewChange) coordinator announcements.
    pub const VIEW_CHANGE: u8 = 2;
    /// [`Command`](super::Command) client-command gossip.
    pub const COMMAND: u8 = 3;
    /// [`ConsensusFrame`](super::ConsensusFrame) slot-scoped consensus.
    pub const CONSENSUS: u8 = 4;
    /// [`DecidedMsg`](super::DecidedMsg) TRB-style decision relay.
    pub const DECIDED: u8 = 5;
    /// [`SyncRequest`](super::SyncRequest) state-transfer request.
    pub const SYNC_REQUEST: u8 = 6;
    /// [`SyncReply`](super::SyncReply) state-transfer chunk.
    pub const SYNC_REPLY: u8 = 7;
    /// [`Batch`](super::WireMsg::Batch) coalesced frames.
    pub const BATCH: u8 = 8;
    /// [`SnapshotRequest`](super::SnapshotRequest) fast-rejoin request.
    pub const SNAPSHOT_REQUEST: u8 = 9;
    /// [`SnapshotReply`](super::SnapshotReply) compacted-prefix summary.
    pub const SNAPSHOT_REPLY: u8 = 10;
}

/// Hard cap on log entries per [`SyncReply`] datagram: keeps every
/// chunk under a typical MTU and bounds what a corrupt length field can
/// make the decoder allocate.
pub const MAX_SYNC_ENTRIES: usize = 32;

/// Hard cap on sub-frames per [`Batch`](WireMsg::Batch) datagram.
pub const MAX_BATCH_FRAMES: usize = 64;

/// Bytes per [`SyncReply`] log entry on the wire.
const SYNC_ENTRY_LEN: usize = 8 + 8 + 16;

/// A heartbeat message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// Sender index.
    pub sender: u16,
    /// Monotone per-sender sequence number.
    pub seq: u64,
    /// Sender-local send time.
    pub sent_at: Nanos,
}

/// A view-change announcement (membership layer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewChange {
    /// Monotone view identifier.
    pub view_id: u64,
    /// Member bitmap (bit `i` = `pᵢ` is in the view).
    pub members: u128,
}

/// A client command gossiped to the group (service layer). The value
/// alone identifies the command — values must be unique per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Command {
    /// The command value.
    pub value: u64,
}

/// One slot-scoped message of the rotating-coordinator consensus the
/// decision service runs per log index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusFrame {
    /// The log slot (consensus instance) the message belongs to.
    pub slot: u64,
    /// The wrapped consensus message.
    pub msg: RotatingMsg<u64>,
}

/// A decision announcement, relayed TRB-style so every member — even
/// one that sat out the deciding quorum — learns the log entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecidedMsg {
    /// The log index.
    pub index: u64,
    /// Id of the view the decision was taken in.
    pub view_id: u64,
    /// Member bitmap of that view (the tiebreaker of the total view
    /// order used to resolve conflicting suffixes on merge).
    pub view_members: u128,
    /// The decided command.
    pub value: u64,
}

/// A state-transfer request: "send me your decision log from
/// `from_index`" — issued after a view change re-admits members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncRequest {
    /// First log index the requester is missing.
    pub from_index: u64,
}

/// A state-transfer chunk: a contiguous run of decision-log entries
/// starting at `start` (at most [`MAX_SYNC_ENTRIES`] per datagram).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncReply {
    /// Index of the first entry.
    pub start: u64,
    /// `(value, view_id, view_members)` per consecutive entry.
    pub entries: Vec<(u64, u64, u128)>,
}

/// A fast-rejoin request: "my log ends at `from_index`". Answered
/// exactly as a [`SyncRequest`] with the same index — the suffix, or a
/// [`SnapshotReply`] if `from_index` lies below the responder's
/// compacted base. This implementation no longer sends it; the tag
/// stays so a peer that does is still answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotRequest {
    /// Absolute length of the requester's log (first missing index).
    pub from_index: u64,
}

/// A fast-rejoin reply: a view-stamped summary of the compacted prefix
/// `[0, upto)` plus the first chunk of the retained tail (entries start
/// at index `upto`, at most [`MAX_SYNC_ENTRIES`] per datagram — the
/// requester pulls the rest with an ordinary [`SyncRequest`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotReply {
    /// The summary covers decisions `[0, upto)`.
    pub upto: u64,
    /// Chained digest of the covered prefix.
    pub digest: u64,
    /// Id of the view the last covered decision was taken in.
    pub view_id: u64,
    /// Member bitmap of that view.
    pub view_members: u128,
    /// `(value, view_id, view_members)` per retained-tail entry,
    /// consecutive from index `upto`.
    pub entries: Vec<(u64, u64, u128)>,
}

/// Any wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// A heartbeat.
    Heartbeat(Heartbeat),
    /// A view change.
    ViewChange(ViewChange),
    /// A client command submission (service layer).
    Command(Command),
    /// A slot-scoped consensus message (service layer).
    Consensus(ConsensusFrame),
    /// A decision relay (service layer).
    Decided(DecidedMsg),
    /// A state-transfer request (service layer).
    SyncRequest(SyncRequest),
    /// A state-transfer chunk (service layer).
    SyncReply(SyncReply),
    /// A coalesced datagram: every frame a node owes one destination in
    /// one tick. Batches never nest.
    Batch(Vec<WireMsg>),
    /// A fast-rejoin request (service layer).
    SnapshotRequest(SnapshotRequest),
    /// A fast-rejoin compacted-prefix summary (service layer).
    SnapshotReply(SnapshotReply),
}

/// Encoding/decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The datagram is shorter than its header claims.
    Truncated,
    /// Unknown magic or message tag.
    Malformed,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::Malformed => write!(f, "unknown magic or tag"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A borrowed view of a decoded [`SyncReply`]: the entry array stays in
/// the datagram; [`SyncReplyView::iter`] reads entries in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncReplyView<'a> {
    /// Index of the first entry.
    pub start: u64,
    /// The raw entry array, exactly `len × 32` bytes.
    raw: &'a [u8],
}

impl<'a> SyncReplyView<'a> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len() / SYNC_ENTRY_LEN
    }

    /// Whether the chunk is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterates `(value, view_id, view_members)` entries in place.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u128)> + 'a {
        read_entries(self.raw)
    }

    /// Copies the view into an owned [`SyncReply`].
    #[must_use]
    pub fn to_owned(&self) -> SyncReply {
        SyncReply {
            start: self.start,
            entries: self.iter().collect(),
        }
    }
}

/// A borrowed view of a decoded [`SnapshotReply`]: the retained-tail
/// entry array stays in the datagram; [`SnapshotReplyView::iter`] reads
/// entries in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotReplyView<'a> {
    /// The summary covers decisions `[0, upto)`.
    pub upto: u64,
    /// Chained digest of the covered prefix.
    pub digest: u64,
    /// Id of the view the last covered decision was taken in.
    pub view_id: u64,
    /// Member bitmap of that view.
    pub view_members: u128,
    /// The raw entry array, exactly `len × 32` bytes.
    raw: &'a [u8],
}

impl<'a> SnapshotReplyView<'a> {
    /// Number of retained-tail entries included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len() / SYNC_ENTRY_LEN
    }

    /// Whether the reply carries no tail entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterates `(value, view_id, view_members)` tail entries in place.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u128)> + 'a {
        read_entries(self.raw)
    }

    /// Copies the view into an owned [`SnapshotReply`].
    #[must_use]
    pub fn to_owned(&self) -> SnapshotReply {
        SnapshotReply {
            upto: self.upto,
            digest: self.digest,
            view_id: self.view_id,
            view_members: self.view_members,
            entries: self.iter().collect(),
        }
    }
}

/// A borrowed view of a decoded [`Batch`](WireMsg::Batch): sub-frames
/// stay in the datagram, re-parsed lazily by [`BatchView::iter`]. The
/// whole batch was validated by [`decode_borrowed`], so iteration never
/// fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchView<'a> {
    count: u8,
    /// The raw sub-frame area: `count` length-prefixed frames.
    raw: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Number of sub-frames.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.count)
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the sub-frames as borrowed views.
    #[must_use]
    pub fn iter(&self) -> BatchIter<'a> {
        BatchIter {
            remaining: self.count,
            rest: Reader(self.raw),
        }
    }
}

/// Iterator over a [`BatchView`]'s sub-frames.
#[derive(Clone, Debug)]
pub struct BatchIter<'a> {
    remaining: u8,
    rest: Reader<'a>,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = WireView<'a>;

    fn next(&mut self) -> Option<WireView<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // [`decode_borrowed`] validated every sub-frame before handing
        // out the view, so these reads cannot fail — but the iterator
        // stays total anyway: on any inconsistency it ends the batch
        // instead of panicking on attacker-reachable state.
        match self.rest.sub_frame().and_then(decode_borrowed) {
            Ok(view) => Some(view),
            Err(_) => {
                debug_assert!(false, "batch was validated by decode_borrowed");
                self.remaining = 0;
                None
            }
        }
    }
}

/// A checked cursor over a datagram, big-endian (network order) like
/// the encoder: every read that runs past the end answers
/// [`DecodeError::Truncated`] and consumes nothing, so a frame's
/// layout is just its fields read in wire order.
#[derive(Clone, Debug)]
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_be_bytes)
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        self.array().map(u128::from_be_bytes)
    }

    /// The next `n` bytes, borrowed.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    /// A `u16` length prefix and the sub-frame it measures.
    fn sub_frame(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u16()?;
        self.bytes(usize::from(len))
    }

    /// A `u16` entry count and the raw entry array it measures; a count
    /// above [`MAX_SYNC_ENTRIES`] is [`DecodeError::Malformed`].
    fn entries(&mut self) -> Result<&'a [u8], DecodeError> {
        let count = usize::from(self.u16()?);
        if count > MAX_SYNC_ENTRIES {
            return Err(DecodeError::Malformed);
        }
        self.bytes(count * SYNC_ENTRY_LEN)
    }
}

/// Reads a raw entry array (a whole number of [`SYNC_ENTRY_LEN`]-byte
/// entries, as [`Reader::entries`] returns it) in place.
fn read_entries(raw: &[u8]) -> impl Iterator<Item = (u64, u64, u128)> + '_ {
    let mut rd = Reader(raw);
    std::iter::from_fn(move || Some((rd.u64().ok()?, rd.u64().ok()?, rd.u128().ok()?)))
}

/// A decoded wire message that borrows variable-length payloads from
/// the datagram. Fixed-size frames decode to the same owned structs as
/// [`WireMsg`]; [`SyncReply`], [`SnapshotReply`] and
/// [`Batch`](WireMsg::Batch) stay borrowed. Convert with
/// [`WireView::into_owned`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireView<'a> {
    /// A heartbeat.
    Heartbeat(Heartbeat),
    /// A view change.
    ViewChange(ViewChange),
    /// A client command submission (service layer).
    Command(Command),
    /// A slot-scoped consensus message (service layer).
    Consensus(ConsensusFrame),
    /// A decision relay (service layer).
    Decided(DecidedMsg),
    /// A state-transfer request (service layer).
    SyncRequest(SyncRequest),
    /// A state-transfer chunk, borrowed from the datagram.
    SyncReply(SyncReplyView<'a>),
    /// A coalesced datagram, borrowed from the datagram.
    Batch(BatchView<'a>),
    /// A fast-rejoin request (service layer).
    SnapshotRequest(SnapshotRequest),
    /// A fast-rejoin summary, borrowed from the datagram.
    SnapshotReply(SnapshotReplyView<'a>),
}

impl WireView<'_> {
    /// Copies the view into an owned [`WireMsg`].
    #[must_use]
    pub fn into_owned(self) -> WireMsg {
        match self {
            WireView::Heartbeat(hb) => WireMsg::Heartbeat(hb),
            WireView::ViewChange(vc) => WireMsg::ViewChange(vc),
            WireView::Command(c) => WireMsg::Command(c),
            WireView::Consensus(frame) => WireMsg::Consensus(frame),
            WireView::Decided(d) => WireMsg::Decided(d),
            WireView::SyncRequest(s) => WireMsg::SyncRequest(s),
            WireView::SyncReply(view) => WireMsg::SyncReply(view.to_owned()),
            WireView::Batch(batch) => {
                WireMsg::Batch(batch.iter().map(WireView::into_owned).collect())
            }
            WireView::SnapshotRequest(s) => WireMsg::SnapshotRequest(s),
            WireView::SnapshotReply(view) => WireMsg::SnapshotReply(view.to_owned()),
        }
    }
}

/// Big-endian (network order) writes onto a frame under construction.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u64(&mut self, v: u64);
    fn put_u128(&mut self, v: u128);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u128(&mut self, v: u128) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

/// Encodes a message into `buf`, **clearing it first** — the frame
/// replaces any previous content. Reusing one warmed buffer across
/// calls is allocation-free once it has reached its steady capacity.
///
/// # Panics
///
/// Panics if a [`SyncReply`] or [`SnapshotReply`] carries more than
/// [`MAX_SYNC_ENTRIES`] entries, a [`Batch`](WireMsg::Batch) more than
/// [`MAX_BATCH_FRAMES`] sub-frames, or a batch nests another batch —
/// senders must chunk and flatten.
pub fn encode_into(msg: &WireMsg, buf: &mut BytesMut) {
    // One uniqueness check for the whole frame: write through the
    // backing vector instead of paying `Arc::make_mut` per field.
    let v = buf.as_mut_vec();
    v.clear();
    encode_frame(msg, v);
}

/// Appends one full frame (magic, tag, body) to `buf`.
fn encode_frame(msg: &WireMsg, b: &mut Vec<u8>) {
    b.put_u16(MAGIC);
    match msg {
        WireMsg::Heartbeat(hb) => {
            b.put_u8(tags::HEARTBEAT);
            b.put_u16(hb.sender);
            b.put_u64(hb.seq);
            b.put_u64(hb.sent_at.as_nanos());
        }
        WireMsg::ViewChange(vc) => {
            b.put_u8(tags::VIEW_CHANGE);
            b.put_u64(vc.view_id);
            b.put_u128(vc.members);
        }
        WireMsg::Command(c) => {
            b.put_u8(tags::COMMAND);
            b.put_u64(c.value);
        }
        WireMsg::Consensus(frame) => {
            b.put_u8(tags::CONSENSUS);
            b.put_u64(frame.slot);
            match &frame.msg {
                RotatingMsg::Estimate { r, ts, v } => {
                    b.put_u8(1);
                    b.put_u64(*r);
                    b.put_u64(*ts);
                    b.put_u64(*v);
                }
                RotatingMsg::Propose { r, v } => {
                    b.put_u8(2);
                    b.put_u64(*r);
                    b.put_u64(*v);
                }
                RotatingMsg::Ack { r } => {
                    b.put_u8(3);
                    b.put_u64(*r);
                }
                RotatingMsg::Nack { r } => {
                    b.put_u8(4);
                    b.put_u64(*r);
                }
                RotatingMsg::Decide(v) => {
                    b.put_u8(5);
                    b.put_u64(*v);
                }
            }
        }
        WireMsg::Decided(d) => {
            b.put_u8(tags::DECIDED);
            b.put_u64(d.index);
            b.put_u64(d.view_id);
            b.put_u128(d.view_members);
            b.put_u64(d.value);
        }
        WireMsg::SyncRequest(s) => {
            b.put_u8(tags::SYNC_REQUEST);
            b.put_u64(s.from_index);
        }
        WireMsg::SyncReply(s) => {
            b.put_u8(tags::SYNC_REPLY);
            b.put_u64(s.start);
            put_entries(&s.entries, b);
        }
        WireMsg::SnapshotRequest(s) => {
            b.put_u8(tags::SNAPSHOT_REQUEST);
            b.put_u64(s.from_index);
        }
        WireMsg::SnapshotReply(s) => {
            b.put_u8(tags::SNAPSHOT_REPLY);
            b.put_u64(s.upto);
            b.put_u64(s.digest);
            b.put_u64(s.view_id);
            b.put_u128(s.view_members);
            put_entries(&s.entries, b);
        }
        WireMsg::Batch(frames) => put_batch_body(frames, b),
    }
}

/// Appends a reply's entry count, then its `(value, view_id,
/// view_members)` entries. Shared by [`SyncReply`] and
/// [`SnapshotReply`].
fn put_entries(entries: &[(u64, u64, u128)], b: &mut Vec<u8>) {
    assert!(
        entries.len() <= MAX_SYNC_ENTRIES,
        "a reply overflows a chunk: {} entries",
        entries.len()
    );
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the assert above caps the entries at MAX_SYNC_ENTRIES"
    )]
    b.put_u16(entries.len() as u16);
    for (value, view_id, view_members) in entries {
        b.put_u64(*value);
        b.put_u64(*view_id);
        b.put_u128(*view_members);
    }
}

/// Appends a batch tag and body: sub-frame count, then each sub-frame
/// behind a `u16` length prefix, filled in once the sub-frame is
/// written. Shared by the [`WireMsg::Batch`] arm of the frame encoder
/// and the slice-based [`encode_batch_into`].
fn put_batch_body(frames: &[WireMsg], b: &mut Vec<u8>) {
    assert!(
        frames.len() <= MAX_BATCH_FRAMES,
        "Batch overflows a datagram: {} frames",
        frames.len()
    );
    b.put_u8(tags::BATCH);
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the assert above caps the frames at MAX_BATCH_FRAMES"
    )]
    b.put_u8(frames.len() as u8);
    for sub in frames {
        assert!(
            !matches!(sub, WireMsg::Batch(_)),
            "batches must not nest — flatten before encoding"
        );
        let prefix = b.len();
        b.put_u16(0);
        encode_frame(sub, b);
        #[allow(
            clippy::cast_possible_truncation,
            reason = "a frame fits a datagram, far below u16::MAX bytes"
        )]
        let len = (b.len() - prefix - 2) as u16;
        if let Some(slot) = b.get_mut(prefix..prefix + 2) {
            slot.copy_from_slice(&len.to_be_bytes());
        }
    }
}

/// Encodes a [`Batch`](WireMsg::Batch) frame directly from a slice of
/// sub-frames, **clearing `buf` first** exactly like [`encode_into`].
/// The coalescing send paths reuse one frame list and one buffer per
/// tick without ever building a `WireMsg::Batch` (whose `Vec` would
/// allocate every tick). Byte-identical to
/// `encode_into(&WireMsg::Batch(frames.to_vec()), buf)`.
///
/// # Panics
///
/// As [`encode_into`] of the equivalent [`WireMsg::Batch`].
pub fn encode_batch_into(frames: &[WireMsg], buf: &mut BytesMut) {
    let v = buf.as_mut_vec();
    v.clear();
    v.put_u16(MAGIC);
    put_batch_body(frames, v);
}

/// Encodes a message into a fresh buffer. Thin shim over
/// [`encode_into`]; hot paths should reuse a buffer instead.
///
/// # Panics
///
/// As [`encode_into`].
#[must_use]
pub fn encode(msg: &WireMsg) -> Bytes {
    let mut b = BytesMut::new();
    encode_frame(msg, b.as_mut_vec());
    b.freeze()
}

/// Decodes a datagram into a borrowed [`WireView`] — variable-length
/// payloads ([`SyncReply`], [`SnapshotReply`],
/// [`Batch`](WireMsg::Batch)) stay in `data`; nothing is copied or
/// allocated. Batches are validated sub-frame by sub-frame here, so
/// [`BatchView::iter`] cannot fail later; nested batches are rejected
/// as [`DecodeError::Malformed`].
///
/// # Errors
///
/// Returns [`DecodeError`] on short or malformed input.
pub fn decode_borrowed(data: &[u8]) -> Result<WireView<'_>, DecodeError> {
    let mut rd = Reader(data);
    // Both header fields before the magic check: a datagram too short
    // for a header is truncated, whatever its first bytes.
    let (magic, tag) = (rd.u16()?, rd.u8()?);
    if magic != MAGIC {
        return Err(DecodeError::Malformed);
    }
    // Struct literals below evaluate their fields in the order written,
    // which is wire order.
    Ok(match tag {
        tags::HEARTBEAT => WireView::Heartbeat(Heartbeat {
            sender: rd.u16()?,
            seq: rd.u64()?,
            sent_at: Nanos::from_nanos(rd.u64()?),
        }),
        tags::VIEW_CHANGE => WireView::ViewChange(ViewChange {
            view_id: rd.u64()?,
            members: rd.u128()?,
        }),
        tags::COMMAND => WireView::Command(Command { value: rd.u64()? }),
        tags::CONSENSUS => {
            let slot = rd.u64()?;
            let msg = match rd.u8()? {
                1 => RotatingMsg::Estimate {
                    r: rd.u64()?,
                    ts: rd.u64()?,
                    v: rd.u64()?,
                },
                2 => RotatingMsg::Propose {
                    r: rd.u64()?,
                    v: rd.u64()?,
                },
                3 => RotatingMsg::Ack { r: rd.u64()? },
                4 => RotatingMsg::Nack { r: rd.u64()? },
                5 => RotatingMsg::Decide(rd.u64()?),
                _ => return Err(DecodeError::Malformed),
            };
            WireView::Consensus(ConsensusFrame { slot, msg })
        }
        tags::DECIDED => WireView::Decided(DecidedMsg {
            index: rd.u64()?,
            view_id: rd.u64()?,
            view_members: rd.u128()?,
            value: rd.u64()?,
        }),
        tags::SYNC_REQUEST => WireView::SyncRequest(SyncRequest {
            from_index: rd.u64()?,
        }),
        tags::SYNC_REPLY => WireView::SyncReply(SyncReplyView {
            start: rd.u64()?,
            raw: rd.entries()?,
        }),
        tags::BATCH => {
            let count = rd.u8()?;
            if usize::from(count) > MAX_BATCH_FRAMES {
                return Err(DecodeError::Malformed);
            }
            let raw = rd.0;
            for _ in 0..count {
                if matches!(decode_borrowed(rd.sub_frame()?)?, WireView::Batch(_)) {
                    return Err(DecodeError::Malformed);
                }
            }
            WireView::Batch(BatchView { count, raw })
        }
        tags::SNAPSHOT_REQUEST => WireView::SnapshotRequest(SnapshotRequest {
            from_index: rd.u64()?,
        }),
        tags::SNAPSHOT_REPLY => WireView::SnapshotReply(SnapshotReplyView {
            upto: rd.u64()?,
            digest: rd.u64()?,
            view_id: rd.u64()?,
            view_members: rd.u128()?,
            raw: rd.entries()?,
        }),
        _ => return Err(DecodeError::Malformed),
    })
}

/// Decodes a datagram into an owned [`WireMsg`]. Thin shim over
/// [`decode_borrowed`]; hot paths should use the borrowed form to skip
/// the copy-out of variable-length payloads.
///
/// # Errors
///
/// Returns [`DecodeError`] on short or malformed input.
pub fn decode(data: &[u8]) -> Result<WireMsg, DecodeError> {
    decode_borrowed(data).map(WireView::into_owned)
}

/// The one receive loop of every node type: empties `rx` (the datagrams
/// a node just drained from its transport), decodes each through
/// [`decode_borrowed`] and hands `on_frame` the sender, the delivery
/// instant and the frame. A [`Batch`](WireMsg::Batch) is datagram
/// framing, not a protocol message: its sub-frames are handed over one
/// by one, in order, exactly as if each had arrived alone (the decoder
/// rejects nesting, so one level is exact). When `on_frame` breaks (a
/// node that halts never polls again) the rest of the drain — the rest
/// of the current batch included — is dropped unprocessed.
///
/// Returns how many datagrams failed to decode; those reach no protocol
/// layer, and the caller counts them as malformed.
pub(crate) fn for_each_frame(
    rx: &mut Vec<Datagram>,
    mut on_frame: impl FnMut(ProcessId, Nanos, &WireView<'_>) -> ControlFlow<()>,
) -> u64 {
    let mut undecodable = 0;
    for dg in rx.drain(..) {
        let Ok(view) = decode_borrowed(&dg.payload) else {
            undecodable += 1;
            continue;
        };
        let mut deliver = |frame: &WireView<'_>| on_frame(dg.from, dg.delivered_at, frame);
        let stop = match &view {
            WireView::Batch(batch) => batch.iter().any(|sub| deliver(&sub).is_break()),
            frame => deliver(frame).is_break(),
        };
        if stop {
            break;
        }
    }
    undecodable
}

/// Converts a member bitmap to a [`ProcessSet`].
#[must_use]
pub fn members_to_set(members: u128, n: usize) -> ProcessSet {
    (0..n)
        .filter(|&ix| members & (1u128 << ix) != 0)
        .map(ProcessId::new)
        .collect()
}

/// Converts a [`ProcessSet`] to a member bitmap.
#[must_use]
pub fn set_to_members(set: ProcessSet) -> u128 {
    set.iter()
        .fold(0u128, |acc, pid| acc | (1u128 << pid.index()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_roundtrip() {
        let hb = WireMsg::Heartbeat(Heartbeat {
            sender: 3,
            seq: 99,
            sent_at: Nanos::from_millis(1234),
        });
        assert_eq!(decode(&encode(&hb)).unwrap(), hb);
    }

    #[test]
    fn view_change_roundtrip() {
        let vc = WireMsg::ViewChange(ViewChange {
            view_id: 7,
            members: 0b1011,
        });
        assert_eq!(decode(&encode(&vc)).unwrap(), vc);
    }

    #[test]
    fn junk_is_rejected() {
        assert_eq!(decode(b""), Err(DecodeError::Truncated));
        assert_eq!(
            decode(b"\x00\x01\x05junkjunkjunk"),
            Err(DecodeError::Malformed)
        );
        // Right magic, bad tag.
        assert_eq!(
            decode(&[0xFD, 0x02, 0xEE, 0, 0]),
            Err(DecodeError::Malformed)
        );
        // Right magic and tag, short body.
        assert_eq!(decode(&[0xFD, 0x02, 1, 0]), Err(DecodeError::Truncated));
    }

    #[test]
    fn service_messages_roundtrip() {
        let msgs = vec![
            WireMsg::Command(Command { value: 41 }),
            WireMsg::Consensus(ConsensusFrame {
                slot: 9,
                msg: RotatingMsg::Estimate { r: 4, ts: 2, v: 17 },
            }),
            WireMsg::Consensus(ConsensusFrame {
                slot: 0,
                msg: RotatingMsg::Decide(5),
            }),
            WireMsg::Decided(DecidedMsg {
                index: 3,
                view_id: 2,
                view_members: 0b1011,
                value: 7,
            }),
            WireMsg::SyncRequest(SyncRequest { from_index: 12 }),
            WireMsg::SyncReply(SyncReply {
                start: 4,
                entries: vec![(10, 1, 0b111), (11, 2, 0b011)],
            }),
            WireMsg::SnapshotRequest(SnapshotRequest { from_index: 2 }),
            WireMsg::SnapshotReply(SnapshotReply {
                upto: 40,
                digest: 0xFEED_BEEF,
                view_id: 3,
                view_members: 0b1011,
                entries: vec![(50, 3, 0b1011), (51, 3, 0b1011)],
            }),
        ];
        for msg in msgs {
            assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn batch_roundtrip() {
        let batch = WireMsg::Batch(vec![
            WireMsg::Heartbeat(Heartbeat {
                sender: 2,
                seq: 5,
                sent_at: Nanos::from_millis(10),
            }),
            WireMsg::ViewChange(ViewChange {
                view_id: 3,
                members: 0b111,
            }),
            WireMsg::SyncReply(SyncReply {
                start: 0,
                entries: vec![(1, 1, 0b1)],
            }),
        ]);
        assert_eq!(decode(&encode(&batch)).unwrap(), batch);
        // The empty batch is legal (if pointless) and round-trips too.
        let empty = WireMsg::Batch(Vec::new());
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn slice_batch_encoder_matches_the_owned_one() {
        let frames = vec![
            WireMsg::Heartbeat(Heartbeat {
                sender: 1,
                seq: 7,
                sent_at: Nanos::from_millis(3),
            }),
            WireMsg::ViewChange(ViewChange {
                view_id: 2,
                members: 0b101,
            }),
        ];
        let mut via_slice = BytesMut::new();
        encode_batch_into(&frames, &mut via_slice);
        let via_owned = encode(&WireMsg::Batch(frames));
        assert_eq!(&via_slice[..], &via_owned[..]);
    }

    #[test]
    fn nested_batches_are_rejected() {
        // Hand-built frame: a batch whose single sub-frame is itself a
        // batch (the encoder refuses to produce this).
        let inner = encode(&WireMsg::Batch(Vec::new()));
        let mut bad = Vec::new();
        bad.put_u16(0xFD02);
        bad.put_u8(8);
        bad.put_u8(1);
        #[allow(
            clippy::cast_possible_truncation,
            reason = "an empty batch is a few bytes"
        )]
        bad.put_u16(inner.len() as u16);
        bad.extend_from_slice(&inner);
        assert_eq!(decode(&bad), Err(DecodeError::Malformed));
    }

    #[test]
    fn batch_with_short_subframe_is_truncated() {
        let mut bad = Vec::new();
        bad.put_u16(0xFD02);
        bad.put_u8(8);
        bad.put_u8(2); // claims two sub-frames, carries none
        assert_eq!(decode(&bad), Err(DecodeError::Truncated));
    }

    #[test]
    fn encode_into_clears_previous_content() {
        let mut buf = BytesMut::new();
        let big = WireMsg::SyncReply(SyncReply {
            start: 0,
            entries: (0..8).map(|i| (i, i, 0)).collect(),
        });
        encode_into(&big, &mut buf);
        let small = WireMsg::Command(Command { value: 1 });
        encode_into(&small, &mut buf);
        assert_eq!(&buf[..], &encode(&small)[..], "clears, never appends");
        assert_eq!(decode(&buf).unwrap(), small);
    }

    #[test]
    fn borrowed_sync_reply_matches_owned() {
        let msg = WireMsg::SyncReply(SyncReply {
            start: 4,
            entries: vec![(10, 1, 0b111), (11, 2, 0b011)],
        });
        let wire = encode(&msg);
        match decode_borrowed(&wire).unwrap() {
            WireView::SyncReply(view) => {
                assert_eq!(view.len(), 2);
                assert_eq!(WireMsg::SyncReply(view.to_owned()), msg);
            }
            other => panic!("wrong view: {other:?}"),
        }
    }

    #[test]
    fn sync_reply_rejects_an_inflated_count() {
        let good = encode(&WireMsg::SyncReply(SyncReply {
            start: 0,
            entries: vec![(1, 1, 1)],
        }));
        let mut bad = good.to_vec();
        // The count field sits after magic (2), tag (1) and start (8).
        bad[11] = 0xFF;
        bad[12] = 0xFF;
        assert_eq!(decode(&bad), Err(DecodeError::Malformed));
        bad[11] = 0;
        bad[12] = 9; // claims 9 entries, carries 1
        assert_eq!(decode(&bad), Err(DecodeError::Truncated));
    }

    #[test]
    fn borrowed_snapshot_reply_matches_owned() {
        let msg = WireMsg::SnapshotReply(SnapshotReply {
            upto: 64,
            digest: 0xABCD,
            view_id: 5,
            view_members: 0b1101,
            entries: vec![(70, 5, 0b1101), (71, 6, 0b0101)],
        });
        let wire = encode(&msg);
        match decode_borrowed(&wire).unwrap() {
            WireView::SnapshotReply(view) => {
                assert_eq!(view.upto, 64);
                assert_eq!(view.len(), 2);
                assert!(!view.is_empty());
                assert_eq!(WireMsg::SnapshotReply(view.to_owned()), msg);
            }
            other => panic!("wrong view: {other:?}"),
        }
    }

    #[test]
    fn snapshot_reply_rejects_an_inflated_count() {
        let good = encode(&WireMsg::SnapshotReply(SnapshotReply {
            upto: 1,
            digest: 2,
            view_id: 3,
            view_members: 4,
            entries: vec![(1, 1, 1)],
        }));
        let mut bad = good.to_vec();
        // The count sits after magic (2), tag (1), upto (8), digest
        // (8), view_id (8) and view_members (16).
        bad[43] = 0xFF;
        bad[44] = 0xFF;
        assert_eq!(decode(&bad), Err(DecodeError::Malformed));
        bad[43] = 0;
        bad[44] = 9; // claims 9 entries, carries 1
        assert_eq!(decode(&bad), Err(DecodeError::Truncated));
    }

    /// One sample frame per [`WireMsg`] variant, with the tag an
    /// exhaustive match names for it: a new variant does not compile
    /// until it has a tag here.
    fn one_frame_per_variant() -> Vec<(WireMsg, u8)> {
        let samples = vec![
            WireMsg::Heartbeat(Heartbeat {
                sender: 1,
                seq: 2,
                sent_at: Nanos::from_millis(3),
            }),
            WireMsg::ViewChange(ViewChange {
                view_id: 4,
                members: 0b101,
            }),
            WireMsg::Command(Command { value: 5 }),
            WireMsg::Consensus(ConsensusFrame {
                slot: 6,
                msg: RotatingMsg::Ack { r: 1 },
            }),
            WireMsg::Decided(DecidedMsg {
                index: 7,
                view_id: 1,
                view_members: 0b11,
                value: 8,
            }),
            WireMsg::SyncRequest(SyncRequest { from_index: 9 }),
            WireMsg::SyncReply(SyncReply {
                start: 10,
                entries: vec![(11, 1, 0b11)],
            }),
            WireMsg::Batch(vec![WireMsg::Command(Command { value: 12 })]),
            WireMsg::SnapshotRequest(SnapshotRequest { from_index: 13 }),
            WireMsg::SnapshotReply(SnapshotReply {
                upto: 14,
                digest: 15,
                view_id: 1,
                view_members: 0b11,
                entries: vec![(16, 1, 0b11)],
            }),
        ];
        samples
            .into_iter()
            .map(|msg| {
                let tag = match &msg {
                    WireMsg::Heartbeat(_) => tags::HEARTBEAT,
                    WireMsg::ViewChange(_) => tags::VIEW_CHANGE,
                    WireMsg::Command(_) => tags::COMMAND,
                    WireMsg::Consensus(_) => tags::CONSENSUS,
                    WireMsg::Decided(_) => tags::DECIDED,
                    WireMsg::SyncRequest(_) => tags::SYNC_REQUEST,
                    WireMsg::SyncReply(_) => tags::SYNC_REPLY,
                    WireMsg::Batch(_) => tags::BATCH,
                    WireMsg::SnapshotRequest(_) => tags::SNAPSHOT_REQUEST,
                    WireMsg::SnapshotReply(_) => tags::SNAPSHOT_REPLY,
                };
                (msg, tag)
            })
            .collect()
    }

    /// The tag values of a markdown doc's tag table (the first table
    /// whose header has a `Tag` cell), sorted: every number in each data
    /// row's first cell, so a combined `6 / 7` row counts for both.
    fn tag_table(md: &str) -> Vec<u8> {
        let mut rows = md.lines().skip_while(|line| {
            !(line.starts_with('|') && line.split('|').any(|cell| cell.trim() == "Tag"))
        });
        rows.next();
        let mut values: Vec<u8> = rows
            .take_while(|line| line.starts_with('|'))
            .filter_map(|row| row.split('|').nth(1))
            .flat_map(|cell| cell.split(|c: char| !c.is_ascii_digit()))
            .filter_map(|number| number.parse().ok())
            .collect();
        values.sort_unstable();
        values
    }

    /// A tag cannot ship half-wired: every variant encodes under its own
    /// tag and round-trips, the tags produced are exactly the `mod tags`
    /// constants, and both tag tables list exactly those values.
    #[test]
    fn every_tag_is_encoded_decoded_and_documented() {
        let module = include_str!("codec.rs")
            .split("pub mod tags {")
            .nth(1)
            .and_then(|rest| rest.split("\n}").next())
            .expect("codec.rs declares `pub mod tags`");
        let mut declared: Vec<u8> = module
            .lines()
            .filter_map(|line| line.trim().strip_prefix("pub const "))
            .filter_map(|decl| decl.split_once("= ")?.1.strip_suffix(';')?.parse().ok())
            .collect();
        declared.sort_unstable();
        let mut produced = Vec::new();
        for (msg, tag) in one_frame_per_variant() {
            let frame = encode(&msg);
            assert_eq!(frame.get(2), Some(&tag), "{msg:?} is sent under its tag");
            assert_eq!(decode(&frame), Ok(msg), "tag {tag} round-trips");
            produced.push(tag);
        }
        produced.sort_unstable();
        assert_eq!(produced, declared, "one variant per `mod tags` constant");
        for (doc, md) in [
            ("docs/WIRE.md", include_str!("../../../docs/WIRE.md")),
            ("ARCHITECTURE.md", include_str!("../../../ARCHITECTURE.md")),
        ] {
            assert_eq!(tag_table(md), declared, "{doc}'s tag table");
        }
    }

    #[test]
    fn member_bitmap_roundtrip() {
        let set: ProcessSet = [0usize, 2, 5].iter().map(|&i| ProcessId::new(i)).collect();
        assert_eq!(members_to_set(set_to_members(set), 8), set);
    }
}
