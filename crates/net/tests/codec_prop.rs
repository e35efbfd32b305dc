//! Wire-codec robustness: round-trip fidelity for every message kind,
//! and totality of `decode` under corruption — truncated, bit-flipped
//! or outright arbitrary datagrams must return an error (or a different
//! message), never panic and never over-allocate.

mod common;

use proptest::prelude::*;
use rfd_algo::consensus::RotatingMsg;
use rfd_net::bytes::BytesMut;
use rfd_net::codec::{
    decode, decode_borrowed, encode, encode_batch_into, ConsensusFrame, DecodeError, SyncRequest,
    WireMsg, WireView, MAX_BATCH_FRAMES,
};

proptest! {
    /// Every message survives an encode/decode round trip bit-exact.
    #[test]
    fn round_trip_is_identity(
        msg in common::wire_frame(),
    ) {
        let encoded = encode(&msg);
        prop_assert_eq!(decode(&encoded), Ok(msg));
    }

    /// Decoding arbitrary bytes is total: it returns `Ok` or `Err`,
    /// never panics (the assertion is the call itself).
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..192),
    ) {
        let _ = decode(&bytes);
    }

    /// Every strict prefix of a valid datagram is `Truncated` — the
    /// formats carry no optional tail, so truncation is always caught,
    /// and it is never mistaken for corruption.
    #[test]
    fn truncated_datagrams_are_rejected(
        msg in common::wire_frame(),
        cut in any::<usize>(),
    ) {
        let encoded = encode(&msg);
        let cut = cut % encoded.len();
        prop_assert_eq!(
            decode(&encoded[..cut]),
            Err(DecodeError::Truncated),
            "prefix of {} bytes",
            cut
        );
    }

    /// The zero-copy decoder agrees with the owned one on every valid
    /// datagram: `decode_borrowed(bytes).map(into_owned) == decode(bytes)`.
    #[test]
    fn borrowed_decode_matches_owned_on_valid_frames(
        msg in common::wire_frame(),
    ) {
        let encoded = encode(&msg);
        let borrowed = decode_borrowed(&encoded).expect("valid frame").into_owned();
        prop_assert_eq!(&borrowed, &msg);
        prop_assert_eq!(decode(&encoded), Ok(borrowed));
    }

    /// ...and on arbitrary bytes the two decoders return the same
    /// verdict — same error, or the same message (total, no panics,
    /// including truncated/corrupt tag-8 batch frames).
    #[test]
    fn borrowed_decode_matches_owned_on_arbitrary_bytes(
        mut bytes in prop::collection::vec(any::<u8>(), 0..192),
        force_batch_tag in any::<bool>(),
    ) {
        // Half the cases get steered into the batch decoder: a valid
        // header with tag 8 and arbitrary garbage behind it.
        if force_batch_tag && bytes.len() >= 3 {
            bytes[0] = 0xFD;
            bytes[1] = 0x02;
            bytes[2] = 8;
        }
        let owned = decode(&bytes);
        let borrowed = decode_borrowed(&bytes).map(WireView::into_owned);
        prop_assert_eq!(owned, borrowed);
    }

    /// A coalesced batch is observationally identical to the singleton
    /// frame sequence it packs: decoding yields the same sub-messages in
    /// order, and the slice-based batch encoder produces byte-identical
    /// output to encoding the equivalent `WireMsg::Batch`.
    #[test]
    fn batch_equals_its_singleton_sequence(
        frames in prop::collection::vec(common::sub_frame(), 0..8),
    ) {
        prop_assert!(frames.len() <= MAX_BATCH_FRAMES);
        let mut via_slice = BytesMut::new();
        encode_batch_into(&frames, &mut via_slice);
        let via_owned = encode(&WireMsg::Batch(frames.clone()));
        prop_assert_eq!(&via_slice[..], &via_owned[..]);
        match decode(&via_owned) {
            Ok(WireMsg::Batch(decoded)) => prop_assert_eq!(decoded, frames),
            other => prop_assert!(false, "batch decoded to {:?}", other),
        }
        // The singleton encodings survive inside the batch bit-exact:
        // decoding each sub-frame individually equals direct encoding.
        let view = decode_borrowed(&via_owned).expect("valid batch");
        let sub: Vec<WireMsg> = match view {
            WireView::Batch(batch) => batch.iter().map(WireView::into_owned).collect(),
            other => { prop_assert!(false, "borrowed batch decoded to {:?}", other); unreachable!() }
        };
        for (msg, direct) in sub.iter().zip(&frames) {
            prop_assert_eq!(msg, direct);
        }
    }

    /// A flipped byte never panics the decoder and never decodes back
    /// to the original message (every encoded byte is load-bearing).
    #[test]
    fn bit_flips_never_panic_or_alias(
        msg in common::wire_frame(),
        position in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut corrupted = encode(&msg).to_vec();
        let position = position % corrupted.len();
        corrupted[position] ^= mask;
        match decode(&corrupted) {
            Ok(other) => prop_assert_ne!(other, msg, "corruption at byte {} went unnoticed", position),
            Err(DecodeError::Truncated | DecodeError::Malformed) => {}
        }
    }
}

/// Deterministic spot checks of the corruption classes the properties
/// sweep (kept as plain tests so a regression names the exact case).
#[test]
fn corrupt_magic_and_tag_are_malformed() {
    let msg = WireMsg::SyncRequest(SyncRequest { from_index: 4 });
    let good = encode(&msg);
    let mut bad_magic = good.to_vec();
    bad_magic[0] ^= 0xFF;
    assert_eq!(decode(&bad_magic), Err(DecodeError::Malformed));
    let mut bad_tag = good.to_vec();
    bad_tag[2] = 0xEE;
    assert_eq!(decode(&bad_tag), Err(DecodeError::Malformed));
    // The whole header is read before the magic is checked: two bytes
    // are too short for one, whatever they hold.
    assert_eq!(decode(&[0, 0]), Err(DecodeError::Truncated));
    assert_eq!(decode(&[0, 0, 1]), Err(DecodeError::Malformed));
}

#[test]
fn consensus_frame_with_unknown_kind_is_malformed() {
    let good = encode(&WireMsg::Consensus(ConsensusFrame {
        slot: 1,
        msg: RotatingMsg::Ack { r: 0 },
    }));
    let mut bad = good.to_vec();
    bad[11] = 9; // kind byte after magic(2) + tag(1) + slot(8)
    assert_eq!(decode(&bad), Err(DecodeError::Malformed));
}
