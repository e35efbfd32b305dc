//! [`Probe`]: the transport wrapper every node of a measured fleet
//! talks through. It always counts datagrams and bytes handed to
//! `Transport::send`; in a traced run it also times every call, copies
//! each delivered payload into a bounded window that is replayed
//! through `decode_borrowed` in one timed pass when it fills (the
//! `codec.` layer), keeps one observer's heartbeat arrivals for the
//! `detector.` replay, and records child spans for sampled steps.
//!
//! Payloads are *copied* into the window, never kept as `Bytes` clones:
//! a held clone would defeat the program's `freeze`/`try_into_mut`
//! buffer recycling and change what is being measured.

use rfd_core::ProcessId;
use rfd_net::bytes::Bytes;
use rfd_net::clock::Nanos;
use rfd_net::codec::{decode_borrowed, tags, WireView};
use rfd_net::transport::{Datagram, Transport};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Datagrams the capture window holds before it is replayed and
/// cleared.
const WINDOW_DATAGRAMS: usize = 4096;
/// Heartbeat arrivals kept for the detector replay.
const MAX_ARRIVALS: usize = 1 << 16;
/// One slot per wire tag (tags are 1..=10).
pub const TAG_SLOTS: usize = 11;

/// A wall-clock span inside a sampled `step()`, relative to the run's
/// epoch.
#[derive(Clone, Copy, Debug)]
pub struct ChildSpan {
    pub parent: u64,
    pub node: usize,
    pub send: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the codec replay has seen so far.
#[derive(Clone, Debug, Default)]
pub struct CodecTally {
    pub datagrams: u64,
    /// Non-batch frames, counted at top level and inside batches.
    pub frames: u64,
    pub by_tag: [u64; TAG_SLOTS],
    pub decode_errors: u64,
    pub replay_ns: u64,
}

#[derive(Debug, Default)]
struct Window {
    bytes: Vec<u8>,
    /// Per captured datagram: end offset in `bytes`, receiver, delivery
    /// time.
    meta: Vec<(usize, usize, Nanos)>,
}

/// Tracing state, present only in a traced run.
#[derive(Debug)]
struct Tracing {
    epoch: Instant,
    send_ns: Cell<u64>,
    recv_ns: Cell<u64>,
    /// Wall time the probe spent on its own replay, to be subtracted
    /// from the enclosing step.
    harness_ns: Cell<u64>,
    window: RefCell<Window>,
    codec: RefCell<CodecTally>,
    /// Whose heartbeat arrivals are kept.
    observer: usize,
    arrivals: RefCell<Vec<(usize, Nanos)>>,
    /// The sampled step in progress, if any.
    parent: Cell<Option<u64>>,
    spans: RefCell<Vec<ChildSpan>>,
}

/// Counters shared by all probes of one fleet.
#[derive(Debug, Default)]
pub struct ProbeShared {
    sends: Cell<u64>,
    bytes: Cell<u64>,
    drains: Cell<u64>,
    received: Cell<u64>,
    tracing: Option<Tracing>,
}

impl ProbeShared {
    /// Counting only.
    pub fn counting() -> Rc<Self> {
        Rc::default()
    }

    /// Counting, timing and capture; `observer`'s heartbeat arrivals
    /// are kept for the detector replay.
    pub fn tracing(observer: usize) -> Rc<Self> {
        Rc::new(Self {
            tracing: Some(Tracing {
                epoch: Instant::now(),
                send_ns: Cell::new(0),
                recv_ns: Cell::new(0),
                harness_ns: Cell::new(0),
                window: RefCell::default(),
                codec: RefCell::default(),
                observer,
                arrivals: RefCell::default(),
                parent: Cell::new(None),
                spans: RefCell::default(),
            }),
            ..Self::default()
        })
    }

    /// Datagrams handed to `Transport::send`.
    pub fn datagrams_sent(&self) -> u64 {
        self.sends.get()
    }

    /// Payload bytes handed to `Transport::send`.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.get()
    }

    /// `recv`/`recv_batch` calls.
    pub fn drains(&self) -> u64 {
        self.drains.get()
    }

    /// Datagrams those calls returned.
    pub fn datagrams_received(&self) -> u64 {
        self.received.get()
    }

    /// Total wall ns inside `send` / inside `recv_batch` (traced runs).
    pub fn call_ns(&self) -> (u64, u64) {
        self.tracing
            .as_ref()
            .map_or((0, 0), |t| (t.send_ns.get(), t.recv_ns.get()))
    }

    /// Wall ns the probe has spent replaying its window so far.
    pub fn harness_ns(&self) -> u64 {
        self.tracing.as_ref().map_or(0, |t| t.harness_ns.get())
    }

    /// `at` as wall ns since the fleet's epoch.
    pub fn since_epoch_ns(&self, at: Instant) -> u64 {
        self.tracing.as_ref().map_or(0, |t| t.rel_ns(at))
    }

    /// Marks the step now starting as sampled (`Some(id)`) or not.
    pub fn set_parent(&self, parent: Option<u64>) {
        if let Some(t) = &self.tracing {
            t.parent.set(parent);
        }
    }

    /// Replays what is left in the window and hands out the results:
    /// the codec tally, the observer's heartbeat arrivals and the child
    /// spans.
    pub fn finish(&self) -> (CodecTally, Vec<(usize, Nanos)>, Vec<ChildSpan>) {
        let Some(t) = &self.tracing else {
            return (CodecTally::default(), Vec::new(), Vec::new());
        };
        t.replay_window();
        (
            t.codec.take(),
            t.arrivals.take(),
            std::mem::take(&mut *t.spans.borrow_mut()),
        )
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Adds one decoded frame to the tally, walking batch sub-frames (a
/// batch itself is a container, not a frame). Heartbeats delivered to
/// the observer are appended to `arrivals` while there is room.
pub fn tally_frame(
    view: &WireView<'_>,
    tally: &mut CodecTally,
    arrivals: Option<(&mut Vec<(usize, Nanos)>, Nanos)>,
) {
    let tag = match view {
        WireView::Batch(batch) => {
            let mut arrivals = arrivals;
            for sub in batch.iter() {
                let inner = arrivals.as_mut().map(|(list, at)| (&mut **list, *at));
                tally_frame(&sub, tally, inner);
            }
            return;
        }
        WireView::Heartbeat(hb) => {
            if let Some((list, at)) = arrivals {
                if list.len() < MAX_ARRIVALS {
                    list.push((usize::from(hb.sender), at));
                }
            }
            tags::HEARTBEAT
        }
        WireView::ViewChange(_) => tags::VIEW_CHANGE,
        WireView::Command(_) => tags::COMMAND,
        WireView::Consensus(_) => tags::CONSENSUS,
        WireView::Decided(_) => tags::DECIDED,
        WireView::SyncRequest(_) => tags::SYNC_REQUEST,
        WireView::SyncReply(_) => tags::SYNC_REPLY,
        WireView::SnapshotRequest(_) => tags::SNAPSHOT_REQUEST,
        WireView::SnapshotReply(_) => tags::SNAPSHOT_REPLY,
    };
    tally.frames += 1;
    tally.by_tag[usize::from(tag)] += 1;
}

impl Tracing {
    fn capture(&self, datagram: &Datagram) {
        let full = {
            let mut w = self.window.borrow_mut();
            w.bytes.extend_from_slice(&datagram.payload);
            let end = w.bytes.len();
            w.meta
                .push((end, datagram.to.index(), datagram.delivered_at));
            w.meta.len() >= WINDOW_DATAGRAMS
        };
        if full {
            self.replay_window();
        }
    }

    /// Decodes every captured payload in one timed pass — as the
    /// program's receive loop does, batches validated then walked —
    /// and clears the window.
    fn replay_window(&self) {
        let started = Instant::now();
        let mut w = self.window.borrow_mut();
        let mut tally = self.codec.borrow_mut();
        let mut arrivals = self.arrivals.borrow_mut();
        let mut begin = 0;
        for &(end, to, at) in &w.meta {
            tally.datagrams += 1;
            match decode_borrowed(&w.bytes[begin..end]) {
                Ok(view) => {
                    let keep = (to == self.observer).then_some((&mut *arrivals, at));
                    tally_frame(&view, &mut tally, keep);
                }
                Err(_) => tally.decode_errors += 1,
            }
            begin = end;
        }
        w.bytes.clear();
        w.meta.clear();
        let spent = ns_between(started, Instant::now());
        tally.replay_ns += spent;
        self.harness_ns.set(self.harness_ns.get() + spent);
    }

    fn rel_ns(&self, at: Instant) -> u64 {
        ns_between(self.epoch, at)
    }

    fn child_span(&self, node: usize, send: bool, started: Instant, ended: Instant) {
        if let Some(parent) = self.parent.get() {
            self.spans.borrow_mut().push(ChildSpan {
                parent,
                node,
                send,
                start_ns: self.rel_ns(started),
                end_ns: self.rel_ns(ended),
            });
        }
    }
}

/// A [`Transport`] that measures the calls passing through it.
#[derive(Debug)]
pub struct Probe<T> {
    inner: T,
    shared: Rc<ProbeShared>,
}

impl<T> Probe<T> {
    pub fn new(inner: T, shared: Rc<ProbeShared>) -> Self {
        Self { inner, shared }
    }
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl<T: Transport> Probe<T> {
    /// Accounts for a drain that appended `into[before..]`.
    fn drained(&self, into: &[Datagram], before: usize, timed: Option<(Instant, Instant)>) {
        let fresh = into.get(before..).unwrap_or_default();
        bump(&self.shared.drains, 1);
        bump(&self.shared.received, fresh.len() as u64);
        if let (Some(t), Some((started, ended))) = (&self.shared.tracing, timed) {
            bump(&t.recv_ns, ns_between(started, ended));
            t.child_span(self.inner.me().index(), false, started, ended);
            for datagram in fresh {
                t.capture(datagram);
            }
        }
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn send(&self, to: ProcessId, payload: Bytes) {
        bump(&self.shared.sends, 1);
        bump(&self.shared.bytes, payload.len() as u64);
        let Some(t) = &self.shared.tracing else {
            return self.inner.send(to, payload);
        };
        let started = Instant::now();
        self.inner.send(to, payload);
        let ended = Instant::now();
        bump(&t.send_ns, ns_between(started, ended));
        t.child_span(self.inner.me().index(), true, started, ended);
    }

    fn recv(&self) -> Option<Datagram> {
        let timed = self.shared.tracing.is_some();
        let started = timed.then(Instant::now);
        let got = self.inner.recv();
        let ended = timed.then(Instant::now);
        self.drained(got.as_slice(), 0, started.zip(ended));
        got
    }

    fn recv_batch(&self, into: &mut Vec<Datagram>) -> usize {
        let before = into.len();
        let timed = self.shared.tracing.is_some();
        let started = timed.then(Instant::now);
        let count = self.inner.recv_batch(into);
        let ended = timed.then(Instant::now);
        self.drained(into, before, started.zip(ended));
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ms, p};
    use rfd_net::bytes::BytesMut;
    use rfd_net::clock::VirtualClock;
    use rfd_net::codec::{
        encode, encode_batch_into, Command, DecidedMsg, Heartbeat, ViewChange, WireMsg,
    };
    use rfd_net::transport::{InMemoryNetwork, NetworkConfig};

    #[test]
    fn probe_counters_match_the_network_stats() {
        for traced in [false, true] {
            let clock = VirtualClock::new();
            let config = NetworkConfig::reliable(ms(1), ms(3)).with_seed(5);
            let net = InMemoryNetwork::new(3, config, clock.clone());
            let shared = if traced {
                ProbeShared::tracing(1)
            } else {
                ProbeShared::counting()
            };
            let probes: Vec<_> = (0..3)
                .map(|i| Probe::new(net.endpoint(p(i)), Rc::clone(&shared)))
                .collect();
            let hb = encode(&WireMsg::Heartbeat(Heartbeat {
                sender: 0,
                seq: 1,
                sent_at: ms(0),
            }));
            let mut bytes = 0;
            for round in 0..7 {
                for to in [1, 2] {
                    probes[0].send(p(to), hb.clone());
                    bytes += hb.len() as u64;
                }
                clock.advance(ms(5));
                let mut into = Vec::new();
                assert_eq!(probes[1].recv_batch(&mut into), 1, "round {round}");
                assert!(probes[2].recv().is_some());
                assert!(probes[2].recv().is_none());
            }
            let (sent, lost, delivered) = net.stats();
            assert_eq!((sent, lost, delivered), (14, 0, 14));
            assert_eq!(shared.datagrams_sent(), sent);
            assert_eq!(shared.bytes_sent(), bytes);
            assert_eq!(shared.datagrams_received(), delivered);
            assert_eq!(shared.drains(), 7 * 3);
            let (tally, arrivals, _) = shared.finish();
            if traced {
                assert_eq!(tally.datagrams, 14);
                assert_eq!(tally.by_tag[usize::from(tags::HEARTBEAT)], 14);
                assert_eq!(arrivals.len(), 7, "only the observer's arrivals");
                assert!(arrivals.iter().all(|(from, _)| *from == 0));
            } else {
                assert_eq!(tally.datagrams, 0);
            }
        }
    }

    #[test]
    fn tally_counts_top_level_and_in_batch_frames_by_tag() {
        let hb = WireMsg::Heartbeat(Heartbeat {
            sender: 2,
            seq: 9,
            sent_at: ms(3),
        });
        let vc = WireMsg::ViewChange(ViewChange {
            view_id: 4,
            members: 0b1_1011,
        });
        let cmd = WireMsg::Command(Command { value: 77 });
        let mut buf = BytesMut::new();
        encode_batch_into(&[hb, vc, cmd.clone()], &mut buf);
        let batch = buf.freeze();
        let decided = encode(&WireMsg::Decided(DecidedMsg {
            index: 1,
            view_id: 4,
            view_members: 0b1_1011,
            value: 77,
        }));
        let mut tally = CodecTally::default();
        let mut arrivals = Vec::new();
        for payload in [&batch, &decided, &encode(&cmd)] {
            let view = decode_borrowed(payload).expect("hand-built datagram decodes");
            tally_frame(&view, &mut tally, Some((&mut arrivals, ms(40))));
        }
        assert_eq!(tally.frames, 5, "the batch container is not a frame");
        assert_eq!(tally.by_tag[usize::from(tags::HEARTBEAT)], 1);
        assert_eq!(tally.by_tag[usize::from(tags::VIEW_CHANGE)], 1);
        assert_eq!(tally.by_tag[usize::from(tags::COMMAND)], 2);
        assert_eq!(tally.by_tag[usize::from(tags::DECIDED)], 1);
        assert_eq!(tally.by_tag[usize::from(tags::BATCH)], 0);
        assert_eq!(arrivals, vec![(2, ms(40))]);
    }
}
