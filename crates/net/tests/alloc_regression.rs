//! Allocation regression tests for the runtime hot paths.
//!
//! A counting [`GlobalAlloc`] wrapper around the system allocator tracks
//! per-thread allocation counts; each test warms its path until every
//! buffer has reached steady-state capacity, then asserts the next
//! cycles allocate **nothing**. These tests pin the allocation-free
//! contract of the zero-copy codec (`encode_into` + `decode_borrowed`),
//! the `freeze`/`try_into_mut` buffer-recycling cycle, the detector
//! receive drain, and the membership tick over stored freshness points;
//! they bound the deciding tick, whose only allocations left are the
//! uncompacted log's growth and the tree nodes of short-lived sets; and
//! they check that a compacted fleet's live heap stays flat per decision.
//!
//! The counters are thread-local (const-initialized, so the allocator
//! never recurses into itself), which keeps the tests immune to the
//! libtest harness running other tests concurrently.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one
// place that genuinely needs it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rfd_core::ProcessId;
use rfd_net::bytes::BytesMut;
use rfd_net::clock::{Clock, Nanos, VirtualClock};
use rfd_net::codec::{
    decode_borrowed, encode, encode_into, Heartbeat, SyncReply, WireMsg, WireView,
};
use rfd_net::estimator::{ChenEstimator, FixedTimeout};
use rfd_net::membership::MembershipNode;
use rfd_net::service::{CompactionPolicy, DecisionService, ServiceOutput};
use rfd_net::transport::{Endpoint, InMemoryNetwork, NetworkConfig, Transport};
use rfd_net::DetectorNode;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live-byte count.
fn add_live(delta: i64) {
    LIVE_BYTES.with(|c| c.set(c.get() + delta));
}

/// Counts every `alloc`/`realloc` on the current thread (frees are not
/// counted: "no new memory requested" is the contract that matters for
/// steady-state churn), and keeps the thread's live bytes: `alloc` adds
/// the block's size, `dealloc` subtracts it, `realloc` adds the change.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation count on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// How much this thread's live heap grew while `f` ran (negative if it
/// shrank).
fn live_bytes_grown_during(f: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.with(Cell::get);
    f();
    LIVE_BYTES.with(Cell::get) - before
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn warmed_codec_round_trip_does_not_allocate() {
    let msg = WireMsg::Heartbeat(Heartbeat {
        sender: 5,
        seq: 1234,
        sent_at: Nanos::from_millis(77),
    });
    let mut buf = BytesMut::with_capacity(64);
    // Warm: the buffer reaches its steady capacity.
    encode_into(&msg, &mut buf);

    let allocs = allocations_during(|| {
        for _ in 0..100 {
            encode_into(&msg, &mut buf);
            match decode_borrowed(&buf).expect("round trip") {
                WireView::Heartbeat(hb) => assert_eq!(hb.seq, 1234),
                other => panic!("wrong frame: {other:?}"),
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state heartbeat round trip must be allocation-free"
    );
}

#[test]
fn borrowed_sync_reply_decode_does_not_allocate() {
    let msg = WireMsg::SyncReply(SyncReply {
        start: 3,
        entries: (0..16).map(|i| (i, i * 7, 1u128 << i)).collect(),
    });
    let mut buf = BytesMut::with_capacity(1024);
    encode_into(&msg, &mut buf);

    let allocs = allocations_during(|| {
        for _ in 0..100 {
            encode_into(&msg, &mut buf);
            match decode_borrowed(&buf).expect("round trip") {
                WireView::SyncReply(view) => {
                    assert_eq!(view.start, 3);
                    let sum: u64 = view.iter().map(|(_, v, _)| v).sum();
                    assert_eq!(sum, (0..16).map(|i| i * 7).sum::<u64>());
                }
                other => panic!("wrong frame: {other:?}"),
            }
        }
    });
    assert_eq!(allocs, 0, "borrowed sync-reply decode must not allocate");
}

#[test]
fn freeze_and_reclaim_cycle_does_not_allocate() {
    let msg = WireMsg::Heartbeat(Heartbeat {
        sender: 1,
        seq: 0,
        sent_at: Nanos::ZERO,
    });
    // Warm one full cycle so the backing vector exists.
    let mut scratch = Some(encode(&msg));

    let allocs = allocations_during(|| {
        for _ in 0..100 {
            let mut buf = scratch
                .take()
                .expect("scratch is always returned")
                .try_into_mut()
                .expect("sole owner between cycles");
            encode_into(&msg, &mut buf);
            let payload = buf.freeze();
            // A fan-out clone that is dropped before the next cycle,
            // as when the network delivers faster than the send period.
            let wire_copy = payload.clone();
            assert_eq!(wire_copy.len(), payload.len());
            drop(wire_copy);
            scratch = Some(payload);
        }
    });
    assert_eq!(
        allocs, 0,
        "encode → freeze → clone → reclaim must be allocation-free"
    );
}

#[test]
fn detector_steady_state_drain_does_not_allocate() {
    let n = 8usize;
    let fan_in = 64usize;
    let clock = VirtualClock::new();
    // Fixed delay, zero loss: the network never consults its RNG.
    let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(1));
    let net = InMemoryNetwork::new(n, config, clock.clone());
    let senders: Vec<_> = (1..n).map(|ix| net.endpoint(p(ix))).collect();
    let payloads: Vec<_> = (1..n)
        .map(|ix| {
            #[allow(clippy::cast_possible_truncation)]
            let sender = ix as u16;
            encode(&WireMsg::Heartbeat(Heartbeat {
                sender,
                seq: 1,
                sent_at: clock.now(),
            }))
        })
        .collect();
    // A period the virtual clock never reaches twice, so the node's own
    // fan-out fires at most once and the cycle is pure receive drain.
    let mut node = DetectorNode::new(
        n,
        FixedTimeout::new(Nanos::from_millis(100)),
        net.endpoint(p(0)),
        clock.clone(),
        Nanos::from_nanos(u64::MAX),
    );

    let mut cycle = || {
        for j in 0..fan_in {
            let s = j % (n - 1);
            senders[s].send(p(0), payloads[s].clone());
        }
        clock.advance(Nanos::from_millis(2));
        node.poll()
    };

    // Warm: inboxes, the in-flight heap, and the node's receive scratch
    // all grow to their steady capacity.
    for _ in 0..5 {
        cycle();
    }

    let allocs = allocations_during(|| {
        for _ in 0..10 {
            let suspects = cycle();
            assert!(suspects.is_empty(), "everyone is heartbeating");
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state detector drain must be allocation-free"
    );
}

/// A warmed membership fleet — heartbeats landing, freshness points
/// re-fixed on each, suspicion and the trust horizon asked on every
/// tick — requests no memory: the per-peer deadlines live in a vector
/// sized once at construction.
#[test]
fn membership_steady_state_tick_does_not_allocate() {
    let n = 5usize;
    let clock = VirtualClock::new();
    let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(1));
    let net = InMemoryNetwork::new(n, config, clock.clone());
    let mut fleet: Vec<_> = (0..n)
        .map(|ix| {
            MembershipNode::new(
                n,
                ChenEstimator::new(Nanos::from_millis(150), 16, Nanos::from_millis(600)),
                net.endpoint(p(ix)),
                clock.clone(),
                Nanos::from_millis(50),
            )
            .with_heal_merge()
        })
        .collect();
    // Ten 5 ms ticks per heartbeat period, as the benchmark polls.
    let mut period = || {
        for _ in 0..10 {
            for node in &mut fleet {
                node.poll();
                assert!(node.trust_horizon().map_or(true, |h| h > clock.now()));
            }
            clock.advance(Nanos::from_millis(5));
        }
    };

    // Warm: inboxes, receive scratch, recycled payloads and every
    // estimator's 16-gap window reach their steady capacity.
    for _ in 0..20 {
        period();
    }

    let allocs = allocations_during(|| {
        for _ in 0..10 {
            period();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state membership ticks must be allocation-free"
    );
    assert!(fleet.iter().all(|node| node.views_installed() == 0));
}

/// A one-process fleet is its own quorum and coordinates every round,
/// so all of an instance's traffic is self-addressed: delivered oldest
/// first it decides in the poll that opens the slot — and that poll
/// opens the next one, so a pool drains in a single poll — at a bounded
/// cost. (Delivered newest first, the round-chasing estimates starved the
/// round-0 ack and the core ran to its million-round cap: one decision
/// took a second and some 300 MB.)
#[test]
fn one_node_fleet_decides_promptly() {
    let commands = 100u64;
    let clock = VirtualClock::new();
    let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(1));
    let net = InMemoryNetwork::new(1, config, clock.clone());
    let mut node = DecisionService::new(
        1,
        ChenEstimator::new(Nanos::from_millis(150), 16, Nanos::from_millis(600)),
        net.endpoint(p(0)),
        clock.clone(),
        Nanos::from_millis(50),
    );
    for value in 1..=commands {
        assert!(node.propose(value));
    }
    let mut events = Vec::new();
    let allocs = allocations_during(|| {
        node.poll_into(&mut events);
    });
    let decided: Vec<u64> = node.log().entries().iter().map(|d| d.value).collect();
    assert_eq!(
        decided,
        (1..=commands).collect::<Vec<_>>(),
        "the poll that decides a slot opens the next"
    );
    assert!(
        allocs <= 4 * commands,
        "{allocs} allocations for {commands} one-node decisions"
    );
}

/// A five-node fleet on a reliable 1 ms network, polled on a 1 ms tick.
struct FiveNodeFleet {
    clock: VirtualClock,
    nodes: Vec<DecisionService<ChenEstimator, Endpoint, VirtualClock>>,
    /// The one event buffer every poll writes into.
    events: Vec<ServiceOutput>,
}

impl FiveNodeFleet {
    const N: usize = 5;

    fn new(compaction: Option<CompactionPolicy>) -> Self {
        let clock = VirtualClock::new();
        let config = NetworkConfig::reliable(Nanos::from_millis(1), Nanos::from_millis(1));
        let net = InMemoryNetwork::new(Self::N, config, clock.clone());
        let nodes = (0..Self::N)
            .map(|ix| {
                let node = DecisionService::new(
                    Self::N,
                    ChenEstimator::new(Nanos::from_millis(150), 16, Nanos::from_millis(600)),
                    net.endpoint(p(ix)),
                    clock.clone(),
                    Nanos::from_millis(50),
                );
                match compaction {
                    Some(policy) => node.with_compaction(policy),
                    None => node,
                }
            })
            .collect();
        Self {
            clock,
            nodes,
            events: Vec::new(),
        }
    }

    /// Submits `values` round-robin, then polls the fleet until every
    /// node's log holds them.
    fn decide(&mut self, values: std::ops::RangeInclusive<u64>) {
        for value in values.clone() {
            let client = usize::try_from(value).expect("small") % Self::N;
            assert!(self.nodes[client].propose(value));
        }
        while self
            .nodes
            .iter()
            .any(|node| node.log().len() < *values.end())
        {
            for node in &mut self.nodes {
                node.poll_into(&mut self.events);
                self.events.clear();
            }
            self.clock.advance(Nanos::from_millis(1));
        }
    }
}

/// A warmed five-node fleet decides a backlog with about one allocation
/// per decision, fleet-wide: the slot driver steps into each node's send
/// queue and renews its retired core, consensus frames, announcements
/// and gossip are encoded into recycled transmit buffers, the events go
/// into one reused buffer, and dense command ids extend a run of the
/// decided-command set in place. What is left is the uncompacted log's
/// own growth and the tree nodes of short-lived sets.
#[test]
fn warmed_five_node_fleet_decides_with_few_allocations() {
    let batch = 200u64;
    let mut fleet = FiveNodeFleet::new(None);
    // Warm: send queues, outboxes, cores, transmit rings, inboxes and
    // the event buffer reach their steady capacity.
    fleet.decide(1..=batch);
    let allocs = allocations_during(|| fleet.decide(batch + 1..=2 * batch));
    let logs: Vec<Vec<u64>> = fleet
        .nodes
        .iter()
        .map(|node| node.log().entries().iter().map(|d| d.value).collect())
        .collect();
    assert!(logs.iter().all(|log| *log == logs[0]), "agreement");
    let mut decided = logs[0].clone();
    decided.sort_unstable();
    assert_eq!(decided, (1..=2 * batch).collect::<Vec<_>>());
    assert!(
        allocs * 4 <= batch * 5,
        "{allocs} allocations for {batch} decisions of a five-node fleet"
    );
}

/// A warmed five-node fleet under a 16-entry compaction tail holds its
/// live heap flat: 800 more decisions leave it within a small fixed
/// bound, not a per-decision slope. The log keeps its retained tail, the
/// pending pools drain, and the decided-command sets hold dense command
/// ids as a single run each. The commands come in bursts of 200, the
/// size the warm-up grew every queue and buffer to.
#[test]
fn compacted_fleet_holds_its_live_heap_flat_per_decision() {
    let (burst, measured) = (200u64, 800u64);
    let mut fleet = FiveNodeFleet::new(Some(CompactionPolicy::retain_last(16)));
    let mut decided = 0;
    let mut decide_bursts = |count: u64| {
        for _ in 0..count / burst {
            fleet.decide(decided + 1..=decided + burst);
            decided += burst;
        }
    };
    decide_bursts(2 * burst);
    let grown = live_bytes_grown_during(|| decide_bursts(measured));
    assert!(
        fleet
            .nodes
            .iter()
            .all(|node| node.log().first_index() > 2 * burst),
        "the fleet compacted"
    );
    assert!(
        grown <= 16 * 1024,
        "the live heap grew {grown} B over {measured} decisions"
    );
}
