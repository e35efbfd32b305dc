//! The retransmission plane's timers, and nothing else: no transport, no
//! wall clock, no log, no consensus driver. Every method is a function
//! of `(now, inputs)`; the node (`node.rs`) decides which frames a firing
//! sends and to whom. See "The retransmission plane" in ARCHITECTURE.md.
//!
//! Two kinds of timer, on two timeouts. The open slot's timer repairs a
//! lost frame, so it runs on a **measured** RTO: Jacobson/Karels over
//! this node's own slot times, floored at 20 ms and bounded by the
//! horizon timeout. The laggard-push fuses chase peers that may really
//! be gone, so they stay on the **horizon** timeout ([`Timeouts`]). A
//! rejoiner's lost snapshot reply needs no timer of its own: the
//! pusher's fuse re-sends it.

use crate::clock::Nanos;
use crate::estimator::RtoFilter;
use rfd_core::ProcessId;

/// Horizon-timeout floor, in heartbeat periods.
const RETX_FLOOR_PERIODS: u64 = 2;

/// Horizon-timeout ceiling, in heartbeat periods.
const RETX_CAP_PERIODS: u64 = 8;

/// The slot timer's floor: RFC 6298's clock-granularity term. A calm
/// fleet's slot times can measure a few milliseconds, and an RTO that
/// small fires on the spread of one tick's scheduling rather than on a
/// lost frame.
const SLOT_RTO_FLOOR: Nanos = Nanos::from_millis(20);

/// Backoff ceiling, in heartbeat periods: the retransmission interval
/// doubles per silent firing but never exceeds this, so a slot stalled
/// on a long partition keeps probing at a bounded, non-zero rate
/// (bounded *interval*, unbounded *attempts* — liveness under any loss
/// rate needs retries to never give up).
const RETX_BACKOFF_CAP_PERIODS: u64 = 16;

/// The two durations derived once per poll from the heartbeat period and
/// the trust horizon: the horizon timeout — what the push fuses are
/// armed with, and what the slot timer arms with before its first sample
/// and never exceeds after — and the backoff cap of both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Timeouts {
    /// The horizon timeout: one heartbeat period past the membership's
    /// trust horizon, clamped to `[RETX_FLOOR_PERIODS, RETX_CAP_PERIODS]`
    /// periods.
    ///
    /// Waiting past the trust horizon means a peer that crashed is
    /// (typically) excluded before a timer armed with this fires — the
    /// right wait for timers that chase a peer, which may be gone. The
    /// slot timer only repairs loss, and waits its measured RTO instead
    /// when that is shorter.
    pub(super) rto: Nanos,
    /// The backoff ceiling of every retry timer.
    pub(super) cap: Nanos,
}

impl Timeouts {
    /// The timeouts at `now`, for a heartbeat `period` and the
    /// membership's current trust horizon (`None` before the first
    /// heartbeat: the floor applies).
    pub(super) fn at(now: Nanos, period: Nanos, trust_horizon: Option<Nanos>) -> Self {
        let periods = |k: u64| Nanos::from_nanos(period.as_nanos().saturating_mul(k));
        let floor = periods(RETX_FLOOR_PERIODS);
        let derived = trust_horizon.map_or(floor, |h| h.saturating_sub(now).saturating_add(period));
        Self {
            rto: derived.clamp(floor, periods(RETX_CAP_PERIODS)),
            cap: periods(RETX_BACKOFF_CAP_PERIODS),
        }
    }
}

/// One exponential-backoff retry timer. The default is *unarmed*: due at
/// once, with a zero interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Backoff {
    /// Next firing instant.
    next: Nanos,
    /// Current backoff interval (doubles per firing, capped).
    interval: Nanos,
    /// Firings since the timer was armed — rotates probe targets across
    /// the view.
    attempts: u32,
}

impl Backoff {
    /// A timer that first fires one `rto` after `now`.
    fn armed(now: Nanos, rto: Nanos) -> Self {
        Self {
            next: now.saturating_add(rto),
            interval: rto,
            attempts: 0,
        }
    }

    fn is_due(&self, now: Nanos) -> bool {
        now >= self.next
    }

    /// Records a firing at `now`: doubles the interval within
    /// `[floor, cap]` and schedules the next firing one interval out.
    /// Returns the number of firings *before* this one.
    fn fire(&mut self, now: Nanos, floor: Nanos, cap: Nanos) -> u32 {
        let doubled = Nanos::from_nanos(self.interval.as_nanos().saturating_mul(2));
        self.interval = doubled.min(cap).max(floor);
        self.next = now.saturating_add(self.interval);
        let before = self.attempts;
        self.attempts = before.saturating_add(1);
        before
    }
}

/// One peer's laggard-push fuse.
#[derive(Clone, Copy, Debug, Default)]
struct PushFuse {
    timer: Backoff,
    /// The peer's acked length when the fuse was last (re)armed — growth
    /// past it counts as progress.
    acked: u64,
}

/// The one open consensus slot, as the plane tracks it.
#[derive(Clone, Copy, Debug)]
struct OpenSlot {
    slot: u64,
    /// The poll in which the slot was first seen open: where its slot
    /// time starts.
    opened: Nanos,
    /// Whether its timer has fired. Karn's rule: such a slot's time
    /// measures the repair, not the round trip, and is no sample.
    fired: bool,
    /// `None` while the slot is making progress: the next
    /// [`RetryPlane::slot_due`] arms it afresh.
    timer: Option<Backoff>,
}

/// Every retry timer of one node: the open consensus slot's and one
/// laggard-push fuse per peer.
#[derive(Debug)]
pub(super) struct RetryPlane {
    /// The one open consensus slot and its timer. One suffices: the
    /// slot driver holds a single instance, its tail's.
    slot: Option<OpenSlot>,
    /// Jacobson/Karels over slot times — first seen open to settled —
    /// from which the slot timer's measured RTO is read. A whole slot is
    /// never shorter than the silent gap its timer measures, so the
    /// estimate errs toward not firing on a calm network.
    slot_times: RtoFilter,
    /// Per-peer laggard-push fuses, indexed by process. A fuse starts
    /// unarmed (a peer that is behind and stalled from the outset is
    /// pushed to at once) and is pushed back while the peer's acked
    /// length keeps up with ours **or keeps growing**, so a push fires
    /// only after a peer stays behind and stalled for a full timeout:
    /// the pull paths — sync fan-out, tail probes — get to finish the
    /// job on their own first.
    pushes: Vec<PushFuse>,
    /// Frames re-sent by the plane: consensus re-sends, tail probes and
    /// laggard pushes. The node adds to it.
    pub(super) sent: u64,
}

impl RetryPlane {
    /// The plane of one node among `n`, nothing armed.
    pub(super) fn new(n: usize) -> Self {
        Self {
            slot: None,
            slot_times: RtoFilter::new(4.0),
            pushes: vec![PushFuse::default(); n],
            sent: 0,
        }
    }

    /// Notes that the open slot emitted fresh peer traffic — progress,
    /// so its timer starts over at the next [`Self::slot_due`].
    pub(super) fn touch(&mut self) {
        if let Some(open) = &mut self.slot {
            open.timer = None;
        }
    }

    /// The slot timer's RTO: the measured `srtt + 4 · rttvar` of slot
    /// times, no shorter than [`SLOT_RTO_FLOOR`] and bounded by the
    /// horizon `t.rto` — which also stands in before the first sample.
    fn slot_rto(&self, t: Timeouts) -> Nanos {
        self.slot_times
            .rto()
            .map_or(t.rto, |measured| measured.max(SLOT_RTO_FLOOR).min(t.rto))
    }

    /// Once per poll, with the open slot if there is one: `Some(firings
    /// so far)` if that slot has been silent past its deadline — the
    /// node re-sends its stalled conversations and the timer backs off.
    /// A slot touched since the last call, or not the open slot then,
    /// re-arms instead. The previously tracked slot, once no longer
    /// open, has settled: its time is a sample unless its timer fired.
    pub(super) fn slot_due(&mut self, now: Nanos, t: Timeouts, open: Option<u64>) -> Option<u32> {
        if let Some(settled) = self.slot.filter(|s| open != Some(s.slot)) {
            self.slot = None;
            if !settled.fired {
                self.slot_times.sample(now.saturating_sub(settled.opened));
            }
        }
        let open = open?;
        let rto = self.slot_rto(t);
        let tracked = self.slot.get_or_insert(OpenSlot {
            slot: open,
            opened: now,
            fired: false,
            timer: None,
        });
        let Some(timer) = &mut tracked.timer else {
            tracked.timer = Some(Backoff::armed(now, rto));
            return None;
        };
        let due = timer.is_due(now);
        tracked.fired |= due;
        due.then(|| timer.fire(now, Nanos::ZERO, t.cap))
    }

    /// Once per gossip period and view member: whether to push the
    /// missing suffix to `member`, whose acked length is `acked` against
    /// our `log_len`. Caught up, or moving on its own, re-arms the fuse;
    /// behind and stalled past the deadline fires it, and the interval
    /// backs off — never below the current `rto`: an unarmed fuse's zero
    /// interval would otherwise double to zero and fire every period.
    pub(super) fn push_due(
        &mut self,
        now: Nanos,
        t: Timeouts,
        member: ProcessId,
        acked: u64,
        log_len: u64,
    ) -> bool {
        let Some(fuse) = self.pushes.get_mut(member.index()) else {
            return false;
        };
        if acked >= log_len || acked > fuse.acked {
            *fuse = PushFuse {
                timer: Backoff::armed(now, t.rto),
                acked,
            };
            return false;
        }
        let due = fuse.timer.is_due(now);
        if due {
            fuse.timer.fire(now, t.rto, t.cap);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: Nanos = Nanos::from_millis(50);

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// `rto` = 2 periods, `cap` = 16 periods: what a node sees before
    /// its first heartbeat arrives.
    fn floor_timeouts() -> Timeouts {
        Timeouts::at(Nanos::ZERO, PERIOD, None)
    }

    #[test]
    fn timeouts_are_one_period_past_the_horizon_clamped_to_2_and_8_periods() {
        assert_eq!(
            floor_timeouts(),
            Timeouts {
                rto: ms(100),
                cap: ms(800)
            }
        );
        let rto = |now, horizon| Timeouts::at(ms(now), PERIOD, Some(ms(horizon))).rto;
        // Horizon already behind us: one period, clamped up to the floor.
        assert_eq!(rto(1_000, 900), ms(100));
        assert_eq!(rto(1_000, 1_040), ms(100));
        // In range: (horizon - now) + period.
        assert_eq!(rto(1_000, 1_200), ms(250));
        // Far horizon: clamped down to eight periods.
        assert_eq!(rto(1_000, 9_000), ms(400));
        // The cap never depends on the horizon.
        assert_eq!(
            Timeouts::at(ms(1_000), PERIOD, Some(ms(9_000))).cap,
            ms(800)
        );
    }

    #[test]
    fn timeouts_saturate_instead_of_overflowing() {
        let max = Nanos::from_nanos(u64::MAX);
        let huge = Nanos::from_nanos(u64::MAX / 3);
        assert_eq!(
            Timeouts::at(Nanos::ZERO, huge, Some(max)),
            Timeouts { rto: max, cap: max }
        );
        let mut plane = RetryPlane::new(3);
        let t = Timeouts::at(Nanos::ZERO, huge, None);
        assert_eq!(plane.slot_due(max, t, Some(0)), None);
        // Armed at `MAX + rto`, saturated: due, and firing cannot wrap.
        assert_eq!(plane.slot_due(max, t, Some(0)), Some(0));
        assert_eq!(plane.slot_due(max, t, Some(0)), Some(1));
    }

    #[test]
    fn a_slot_timer_fires_at_rto_then_doubles_to_the_cap_counting_attempts() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        assert_eq!(plane.slot_due(ms(0), t, Some(7)), None, "newly open: arms");
        assert_eq!(plane.slot_due(ms(99), t, Some(7)), None, "before rto");
        assert_eq!(plane.slot_due(ms(100), t, Some(7)), Some(0), "at rto");
        // Intervals from here: 200, 400, 800 (the cap), 800, 800.
        let mut now = 100;
        for (attempts, interval) in [(1, 200), (2, 400), (3, 800), (4, 800), (5, 800)] {
            assert_eq!(plane.slot_due(ms(now + interval - 1), t, Some(7)), None);
            now += interval;
            assert_eq!(plane.slot_due(ms(now), t, Some(7)), Some(attempts));
        }
    }

    #[test]
    fn a_touched_slot_rearms_instead_of_firing() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        plane.slot_due(ms(0), t, Some(7));
        assert_eq!(plane.slot_due(ms(100), t, Some(7)), Some(0));
        // Due again at 300 — but the slot emitted: full reset.
        plane.touch();
        assert_eq!(plane.slot_due(ms(300), t, Some(7)), None);
        assert_eq!(plane.slot_due(ms(399), t, Some(7)), None);
        assert_eq!(
            plane.slot_due(ms(400), t, Some(7)),
            Some(0),
            "attempts and interval restart with the re-arm"
        );
        assert_eq!(plane.slot_due(ms(599), t, Some(7)), None);
        assert_eq!(plane.slot_due(ms(600), t, Some(7)), Some(1));
    }

    #[test]
    fn a_new_open_slot_rearms_instead_of_inheriting_the_old_timer() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        plane.slot_due(ms(0), t, Some(7));
        assert_eq!(plane.slot_due(ms(100), t, Some(7)), Some(0));
        // Slot 7 decided, slot 8 opened; slot 7's timer would be due.
        assert_eq!(plane.slot_due(ms(300), t, Some(8)), None);
        assert_eq!(plane.slot_due(ms(399), t, Some(8)), None);
        assert_eq!(plane.slot_due(ms(400), t, Some(8)), Some(0));
    }

    #[test]
    fn no_open_slot_yields_nothing_and_leaves_no_touch_or_timer_behind() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        // The slot emitted and decided within one poll.
        plane.touch();
        assert_eq!(plane.slot_due(ms(0), t, None), None);
        // That touch is spent: it resets nothing once slot 8 is armed.
        assert_eq!(plane.slot_due(ms(10), t, Some(8)), None);
        assert_eq!(plane.slot_due(ms(110), t, Some(8)), Some(0));
        // Closing forgets the timer: the same slot number seen open
        // again starts afresh rather than firing at once.
        assert_eq!(plane.slot_due(ms(120), t, None), None);
        assert_eq!(plane.slot_due(ms(900), t, Some(8)), None);
        assert_eq!(plane.slot_due(ms(999), t, Some(8)), None);
        assert_eq!(plane.slot_due(ms(1_000), t, Some(8)), Some(0));
    }

    #[test]
    fn an_unarmed_push_fuse_fires_at_once_and_backs_off_from_rto() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        let peer = ProcessId::new(1);
        // Behind (acked 0 of 5) and never seen moving: the very first
        // check pushes.
        assert!(plane.push_due(ms(0), t, peer, 0, 5));
        // The unarmed interval is zero; doubling it must not leave the
        // fuse permanently due — it floors at rto…
        assert!(!plane.push_due(ms(99), t, peer, 0, 5));
        assert!(plane.push_due(ms(100), t, peer, 0, 5));
        // …then doubles: 200, 400, 800, 800.
        let mut now = 100;
        for interval in [200, 400, 800, 800] {
            assert!(!plane.push_due(ms(now + interval - 1), t, peer, 0, 5));
            now += interval;
            assert!(plane.push_due(ms(now), t, peer, 0, 5));
        }
    }

    #[test]
    fn a_push_fuse_floors_at_the_current_rto_when_it_has_grown() {
        let mut plane = RetryPlane::new(3);
        let peer = ProcessId::new(1);
        assert!(plane.push_due(ms(0), floor_timeouts(), peer, 0, 5));
        assert!(plane.push_due(ms(100), floor_timeouts(), peer, 0, 5));
        // Interval is 200 ms now; the horizon moved out and rto is 400.
        let slow = Timeouts::at(ms(300), PERIOD, Some(ms(9_000)));
        assert_eq!(slow.rto, ms(400));
        assert!(plane.push_due(ms(300), slow, peer, 0, 5));
        assert!(!plane.push_due(ms(699), slow, peer, 0, 5));
        assert!(plane.push_due(ms(700), slow, peer, 0, 5));
    }

    #[test]
    fn a_push_fuse_rearms_on_caught_up_and_on_growth_past_the_watermark() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        let peer = ProcessId::new(2);
        // Caught up: re-arms (never fires), however long it stays so.
        assert!(!plane.push_due(ms(0), t, peer, 5, 5));
        assert!(!plane.push_due(ms(1_000), t, peer, 5, 5));
        // Falls behind (log grew): a full rto of grace from the last
        // re-arm, then a push.
        assert!(!plane.push_due(ms(1_050), t, peer, 5, 9));
        assert!(plane.push_due(ms(1_100), t, peer, 5, 9));
        // Still behind but its ack grew past the watermark: moving on
        // its own, so the due fuse re-arms instead of firing.
        assert!(!plane.push_due(ms(1_300), t, peer, 6, 9));
        assert!(!plane.push_due(ms(1_399), t, peer, 6, 9));
        // Same ack again is not growth: fires, from a fresh backoff.
        assert!(plane.push_due(ms(1_400), t, peer, 6, 9));
        assert!(!plane.push_due(ms(1_599), t, peer, 6, 9));
        assert!(plane.push_due(ms(1_600), t, peer, 6, 9));
    }

    #[test]
    fn push_fuses_are_per_peer_and_ignore_processes_outside_the_group() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        assert!(plane.push_due(ms(0), t, ProcessId::new(1), 0, 5));
        assert!(
            plane.push_due(ms(0), t, ProcessId::new(2), 0, 5),
            "own fuse"
        );
        for now in [0, 100, 10_000] {
            assert!(!plane.push_due(ms(now), t, ProcessId::new(3), 0, 5));
            assert!(!plane.push_due(ms(now), t, ProcessId::new(127), 0, 5));
        }
    }

    /// Back-to-back slots from `start_ms`, the k-th lasting `lengths[k]`
    /// ms: each settles in the poll that opens the next, so each is one
    /// sample. Returns the open slot and when it opened, in ms.
    fn run_slots(
        plane: &mut RetryPlane,
        t: Timeouts,
        start_ms: u64,
        lengths: &[u64],
    ) -> (u64, u64) {
        let mut now = start_ms;
        assert_eq!(plane.slot_due(ms(now), t, Some(0)), None);
        for (slot, len) in (1..).zip(lengths) {
            now += len;
            assert_eq!(plane.slot_due(ms(now), t, Some(slot)), None);
        }
        (lengths.len() as u64, now)
    }

    #[test]
    fn before_any_sample_the_slot_timer_arms_at_the_horizon_rto() {
        let far = Timeouts::at(Nanos::ZERO, PERIOD, Some(ms(9_000)));
        assert_eq!(far.rto, ms(400));
        let mut plane = RetryPlane::new(3);
        assert_eq!(plane.slot_due(ms(0), far, Some(0)), None);
        assert_eq!(plane.slot_due(ms(399), far, Some(0)), None);
        assert_eq!(plane.slot_due(ms(400), far, Some(0)), Some(0));
    }

    #[test]
    fn on_a_steady_sample_stream_the_slot_rto_converges_to_srtt_plus_4_rttvar() {
        let t = floor_timeouts();
        let lengths: Vec<u64> = (0..64).map(|k| if k % 2 == 0 { 10 } else { 30 }).collect();
        // The filter by hand: the first sample seeds srtt and rttvar =
        // srtt / 2; no later sample reaches the 2 × RTO ceiling.
        let (mut srtt, mut rttvar) = (10e6, 5e6);
        for &len in &lengths[1..] {
            let sample = ms(len).as_nanos() as f64;
            rttvar = 0.75 * rttvar + 0.25 * (sample - srtt).abs();
            srtt = 0.875 * srtt + 0.125 * sample;
        }
        let rto = (srtt + 4.0 * rttvar) as u64;
        assert!(
            (50_000_000..70_000_000).contains(&rto),
            "≈ 20 + 4 · 10 ms: {rto}"
        );
        let mut plane = RetryPlane::new(3);
        let (slot, opened) = run_slots(&mut plane, t, 1_000, &lengths);
        let at = |ns: u64| Nanos::from_nanos(ms(opened).as_nanos() + ns);
        assert_eq!(plane.slot_due(at(rto - 1), t, Some(slot)), None);
        assert_eq!(plane.slot_due(at(rto), t, Some(slot)), Some(0));
    }

    #[test]
    fn the_measured_rto_never_exceeds_the_horizon_rto() {
        // One 90 ms slot measures 90 + 4 · 45 = 270 ms.
        let mut plane = RetryPlane::new(3);
        let near = floor_timeouts();
        let (slot, opened) = run_slots(&mut plane, near, 0, &[90]);
        assert_eq!(plane.slot_times.rto(), Some(ms(270)));
        assert_eq!(plane.slot_due(ms(opened + 99), near, Some(slot)), None);
        assert_eq!(plane.slot_due(ms(opened + 100), near, Some(slot)), Some(0));
        // Under a 400 ms horizon the measured 270 ms applies.
        let mut plane = RetryPlane::new(3);
        let far = Timeouts::at(Nanos::ZERO, PERIOD, Some(ms(9_000)));
        let (slot, opened) = run_slots(&mut plane, far, 0, &[90]);
        assert_eq!(plane.slot_due(ms(opened + 269), far, Some(slot)), None);
        assert_eq!(plane.slot_due(ms(opened + 270), far, Some(slot)), Some(0));
    }

    #[test]
    fn a_slot_whose_timer_fired_gives_no_sample() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        // One 20 ms slot: srtt 20, rttvar 10, RTO 60 ms.
        let (slot, opened) = run_slots(&mut plane, t, 0, &[20]);
        assert_eq!(plane.slot_rto(t), ms(60));
        assert_eq!(plane.slot_due(ms(opened + 60), t, Some(slot)), Some(0));
        // Progress after the firing re-arms, but the slot stays fired.
        plane.touch();
        assert_eq!(plane.slot_due(ms(opened + 70), t, Some(slot)), None);
        assert_eq!(plane.slot_due(ms(opened + 90), t, Some(slot + 1)), None);
        assert_eq!(
            plane.slot_rto(t),
            ms(60),
            "Karn: the fired slot is no sample"
        );
        // The next slot never fires: touched midway, it still measures
        // from its opening poll — 20 ms, so srtt 20, rttvar 7.5, RTO 50.
        plane.touch();
        assert_eq!(plane.slot_due(ms(opened + 100), t, Some(slot + 1)), None);
        assert_eq!(plane.slot_due(ms(opened + 110), t, Some(slot + 2)), None);
        assert_eq!(plane.slot_rto(t), ms(50));
    }

    #[test]
    fn a_firing_doubles_from_the_measured_rto_up_to_the_cap() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        let (slot, opened) = run_slots(&mut plane, t, 0, &[20]);
        assert_eq!(plane.slot_due(ms(opened + 59), t, Some(slot)), None);
        assert_eq!(plane.slot_due(ms(opened + 60), t, Some(slot)), Some(0));
        // Intervals from here: 120, 240, 480, 800 (the cap), 800.
        let mut now = opened + 60;
        for (attempts, interval) in [(1, 120), (2, 240), (3, 480), (4, 800), (5, 800)] {
            assert_eq!(plane.slot_due(ms(now + interval - 1), t, Some(slot)), None);
            now += interval;
            assert_eq!(plane.slot_due(ms(now), t, Some(slot)), Some(attempts));
        }
    }

    #[test]
    fn slot_samples_leave_push_fuses_on_the_horizon() {
        let t = floor_timeouts();
        let mut plane = RetryPlane::new(3);
        let (_, now) = run_slots(&mut plane, t, 0, &[10; 16]);
        // 10 ms slots measure about 10 ms; the floor holds the timer at
        // 20 ms, still well inside the 100 ms horizon.
        assert!(plane.slot_times.rto() < Some(SLOT_RTO_FLOOR));
        assert_eq!(plane.slot_rto(t), SLOT_RTO_FLOOR);
        let peer = ProcessId::new(1);
        assert!(plane.push_due(ms(now), t, peer, 0, 5));
        assert!(!plane.push_due(ms(now + 99), t, peer, 0, 5));
        assert!(plane.push_due(ms(now + 100), t, peer, 0, 5));
    }
}
