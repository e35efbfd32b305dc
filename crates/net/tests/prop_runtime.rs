//! Property-based tests on the runtime: estimator laws, codec
//! roundtrips, QoS tracker accounting, virtual network conservation and
//! delivery order.

use bytes::Bytes;
use proptest::prelude::*;
use rfd_core::ProcessId;
use rfd_net::clock::{Nanos, VirtualClock};
use rfd_net::codec::{decode, encode, Heartbeat, ViewChange, WireMsg};
use rfd_net::estimator::{
    ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
};
use rfd_net::qos::QosTracker;
use rfd_net::transport::{ChurnableTransport, Datagram, InMemoryNetwork, NetworkConfig, Transport};
use rfd_net::WeatherDirective;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

/// Strictly increasing arrival times from positive gaps.
fn arrivals(gaps: Vec<u64>) -> Vec<Nanos> {
    let mut t = 0u64;
    gaps.into_iter()
        .map(|g| {
            t += g.max(1);
            ms(t)
        })
        .collect()
}

fn estimators() -> Vec<Box<dyn ArrivalEstimator>> {
    vec![
        Box::new(FixedTimeout::new(ms(300))),
        Box::new(ChenEstimator::new(ms(60), 16, ms(400))),
        Box::new(JacobsonEstimator::new(4.0, ms(400))),
        Box::new(PhiAccrual::new(3.0, 16, ms(400))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Law: after any arrival sequence, a long-enough silence makes every
    /// estimator suspect, and the suspicion level is monotone in silence.
    #[test]
    fn silence_eventually_suspects(gaps in prop::collection::vec(1u64..400, 1..30)) {
        let times = arrivals(gaps);
        let last = *times.last().unwrap();
        for mut est in estimators() {
            for &t in &times {
                est.observe(t);
            }
            // One hour of silence beats any adaptive deadline here.
            let far = last.saturating_add(ms(3_600_000));
            prop_assert!(est.is_suspect(far), "{} never suspects", est.name());
            let lvl_near = est.suspicion_level(last.saturating_add(ms(1)));
            let lvl_far = est.suspicion_level(far);
            prop_assert!(lvl_far >= lvl_near, "{} level not monotone", est.name());
        }
    }

    /// Law: a fresh heartbeat un-suspects (trust is restorable).
    #[test]
    fn fresh_heartbeat_restores_trust(gaps in prop::collection::vec(1u64..400, 2..30)) {
        let times = arrivals(gaps);
        let last = *times.last().unwrap();
        for mut est in estimators() {
            for &t in &times {
                est.observe(t);
            }
            let far = last.saturating_add(ms(3_600_000));
            prop_assert!(est.is_suspect(far));
            est.observe(far);
            prop_assert!(
                !est.is_suspect(far.saturating_add(ms(1))),
                "{} stays suspicious after a heartbeat",
                est.name()
            );
        }
    }

    /// Deadlines never precede the last arrival.
    #[test]
    fn deadline_is_after_last_arrival(gaps in prop::collection::vec(1u64..400, 1..30)) {
        let times = arrivals(gaps);
        let last = *times.last().unwrap();
        for mut est in estimators() {
            for &t in &times {
                est.observe(t);
            }
            if let Some(d) = est.deadline() {
                prop_assert!(d >= last, "{}: deadline {d} before last arrival {last}", est.name());
            }
        }
    }

    // ---------- codec ----------

    #[test]
    fn heartbeat_roundtrips(sender in 0u16..128, seq in any::<u64>(), at in any::<u64>()) {
        let msg = WireMsg::Heartbeat(Heartbeat {
            sender,
            seq,
            sent_at: Nanos::from_nanos(at),
        });
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn view_change_roundtrips(view_id in any::<u64>(), members in any::<u128>()) {
        let msg = WireMsg::ViewChange(ViewChange { view_id, members });
        prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
    }

    #[test]
    fn decoder_never_panics_on_junk(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode(&data);
    }

    #[test]
    fn truncated_encodings_are_rejected(sender in 0u16..128, cut in 0usize..18) {
        let msg = WireMsg::Heartbeat(Heartbeat { sender, seq: 1, sent_at: ms(1) });
        let full = encode(&msg);
        let cut = cut.min(full.len().saturating_sub(1));
        prop_assert!(decode(&full[..cut]).is_err());
    }

    // ---------- QoS tracker ----------

    /// Accounting: query accuracy is in [0,1]; mistakes count the number
    /// of false episodes; with no suspicion samples there are none.
    #[test]
    fn qos_tracker_accounting(
        flips in prop::collection::vec((1u64..1_000, any::<bool>()), 0..40)
    ) {
        let mut tracker = QosTracker::new();
        let mut t = 0u64;
        let mut suspected_any = false;
        for (gap, s) in flips {
            t += gap;
            tracker.sample(ms(t), s);
            suspected_any |= s;
        }
        let end = ms(t + 1_000);
        let report = tracker.finalize(None, end);
        prop_assert!((0.0..=1.0).contains(&report.query_accuracy));
        prop_assert!(report.mistake_rate >= 0.0);
        if !suspected_any {
            prop_assert_eq!(report.mistakes, 0);
            prop_assert!(report.query_accuracy > 0.999);
        }
    }

    // ---------- virtual network ----------

    /// Conservation and delivery order. Sends are interleaved with clock
    /// advances and partial drains, over random delays, a fixed delay,
    /// or random delays with the reordering plane holding some datagrams
    /// back. Conservation: sent = lost + delivered + still-in-flight;
    /// with the clock advanced far enough, in-flight drains to zero (no
    /// down nodes). Order: each receiver's arrivals come in
    /// non-decreasing `delivered_at`, ties in send order.
    #[test]
    fn network_conserves_datagrams(
        sends in prop::collection::vec((0usize..3, 0usize..3, 0u64..3), 0..60),
        loss in 0u32..50,
        medium in 0usize..3,
        seed in any::<u64>()
    ) {
        let clock = VirtualClock::new();
        let delays = if medium == 1 { (ms(3), ms(3)) } else { (ms(1), ms(8)) };
        let config = NetworkConfig::reliable(delays.0, delays.1)
            .with_loss(f64::from(loss) / 100.0)
            .with_seed(seed);
        let net = InMemoryNetwork::new(3, config, clock.clone());
        if medium == 2 {
            let hold = WeatherDirective::Reorder { per_mille: 300, hold: ms(6) };
            net.apply_weather(&hold);
        }
        let endpoints: Vec<_> = (0..3).map(|i| net.endpoint(ProcessId::new(i))).collect();
        let mut arrivals: Vec<Vec<Datagram>> = vec![Vec::new(); 3];
        for (ix, (from, to, advance)) in (0u64..).zip(&sends) {
            endpoints[*from].send(ProcessId::new(*to), Bytes::from(ix.to_le_bytes().to_vec()));
            clock.advance(ms(*advance));
            endpoints[*to].recv_batch(&mut arrivals[*to]);
        }
        clock.advance(ms(1_000));
        for (e, got) in endpoints.iter().zip(&mut arrivals) {
            while let Some(datagram) = e.recv() {
                got.push(datagram);
            }
        }
        let (sent, lost, delivered) = net.stats();
        prop_assert_eq!(sent, sends.len() as u64);
        prop_assert_eq!(lost + delivered, sent);
        prop_assert_eq!(arrivals.iter().map(Vec::len).sum::<usize>() as u64, delivered);
        let send_index = |d: &Datagram| u64::from_le_bytes(d.payload[..].try_into().unwrap());
        for got in &arrivals {
            for pair in got.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                prop_assert!(
                    (a.delivered_at, send_index(a)) < (b.delivered_at, send_index(b)),
                    "send {} at {:?} arrived before send {} at {:?}",
                    send_index(a), a.delivered_at, send_index(b), b.delivered_at
                );
            }
        }
    }
}
