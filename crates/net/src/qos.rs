//! QoS metrics for failure detectors (Chen–Toueg–Aguilera, IEEE TC 2002)
//! and the single-link evaluation harness behind experiment E7.
//!
//! The primary metrics:
//!
//! * **Detection time `T_D`** — from the crash to the beginning of the
//!   final (permanent) suspicion.
//! * **Mistake rate `λ_M`** — false-suspicion episodes per second of
//!   pre-crash (or crash-free) operation.
//! * **Average mistake duration `T_M`** — mean length of a false
//!   suspicion.
//! * **Query accuracy probability `P_A`** — fraction of pre-crash time
//!   the detector answered "trust" (correctly).
//!
//! Each metric is accumulated by one type: [`QosMonitor`], the O(1)
//! incremental accumulator every driver in this crate samples
//! ([`evaluate_qos`], [`crate::online::OnlineRunner`]). [`QosTracker`] is
//! the **reference** — it keeps the whole episode list and computes the
//! same report post hoc — that `tests/prop_qos.rs` compares the monitor
//! against, bitwise (and checks against a per-tick brute force in
//! turn); no non-test code calls it.

use crate::clock::{Clock, Nanos, VirtualClock};
use crate::detector::DetectorNode;
use crate::estimator::ArrivalEstimator;
use crate::transport::{InMemoryNetwork, NetworkConfig};
use rfd_core::ProcessId;

/// The reference QoS computation: records every suspect/trust
/// transition of one observer about one target and computes the metrics
/// against ground truth post hoc. Tests compare [`QosMonitor`] against
/// it; drivers accumulate in the monitor.
#[derive(Clone, Debug, Default)]
pub struct QosTracker {
    /// Suspicion intervals `(start, end)`; the last may be open.
    episodes: Vec<(Nanos, Option<Nanos>)>,
    state: bool,
    last_sample: Option<Nanos>,
}

impl QosTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the detector's answer at `now` (`true` = suspect).
    /// Samples must be fed in non-decreasing time order.
    pub fn sample(&mut self, now: Nanos, suspect: bool) {
        if let Some(prev) = self.last_sample {
            debug_assert!(now >= prev, "samples must be time-ordered");
        }
        self.last_sample = Some(now);
        match (self.state, suspect) {
            (false, true) => self.episodes.push((now, None)),
            (true, false) => {
                if let Some(ep) = self.episodes.last_mut() {
                    ep.1 = Some(now);
                }
            }
            _ => {}
        }
        self.state = suspect;
    }

    /// Computes the QoS report given the target's `crash` time (if it
    /// crashed) and the observation `end` time.
    #[must_use]
    pub fn finalize(&self, crash: Option<Nanos>, end: Nanos) -> QosReport {
        let truth_horizon = crash.unwrap_or(end).min(end);
        let mut mistakes = 0u32;
        let mut mistake_time = Nanos::ZERO;
        let mut longest_mistake = Nanos::ZERO;
        let mut detection_time = None;
        for &(start, end_ep) in &self.episodes {
            let ep_end = end_ep.unwrap_or(end);
            match crash {
                Some(c) if end_ep.is_none() && ep_end >= c => {
                    // The final, permanent suspicion. If it began before
                    // the crash it was a (lucky) mistake turned detection;
                    // T_D counts from the crash, floored at zero.
                    detection_time = Some(start.saturating_sub(c));
                    // Its pre-crash portion counts as mistake time.
                    if start < c {
                        mistakes += 1;
                        let d = c.saturating_sub(start);
                        mistake_time = mistake_time.saturating_add(d);
                        longest_mistake = longest_mistake.max(d);
                    }
                }
                _ => {
                    // A closed episode, or one with no crash: a mistake
                    // (clip to the truth horizon).
                    let m_start = start.min(truth_horizon);
                    let m_end = ep_end.min(truth_horizon);
                    if m_end > m_start || (start < truth_horizon && end_ep.is_none()) {
                        mistakes += 1;
                        let d = m_end.saturating_sub(m_start);
                        mistake_time = mistake_time.saturating_add(d);
                        longest_mistake = longest_mistake.max(d);
                    }
                }
            }
        }
        let truth_secs = truth_horizon.as_secs_f64();
        QosReport {
            detection_time,
            mistakes,
            mistake_rate: if truth_secs > 0.0 {
                f64::from(mistakes) / truth_secs
            } else {
                0.0
            },
            avg_mistake_duration: if mistakes > 0 {
                Nanos::from_nanos(mistake_time.as_nanos() / u64::from(mistakes))
            } else {
                Nanos::ZERO
            },
            longest_mistake,
            query_accuracy: if truth_horizon > Nanos::ZERO {
                1.0 - mistake_time.as_nanos() as f64 / truth_horizon.as_nanos() as f64
            } else {
                1.0
            },
        }
    }
}

/// An **online** QoS monitor — the accumulator every driver samples,
/// and the incremental counterpart of the reference [`QosTracker`].
///
/// The tracker records every suspicion episode and computes the metrics
/// post hoc in [`QosTracker::finalize`]; a long-running service cannot
/// afford either the unbounded episode list or the end-of-run scan. The
/// monitor instead folds each sample into O(1) running aggregates and
/// answers [`QosMonitor::report`] at any time in O(1).
///
/// The monitor is constructed with the ground-truth crash time (QoS
/// metrics are *defined* against ground truth — the reference takes
/// the same value in `finalize`), which lets every closed episode be
/// clipped to the crash immediately. By construction, for any sample
/// prefix fed to both,
/// `monitor.report(end) == tracker.finalize(crash, end)` field for field
/// — property-tested in `tests/prop_qos.rs`.
///
/// [`crate::online::OnlineRunner`] embeds one monitor per ordered
/// observer–target pair and samples them every tick, so a fleet is
/// scored while it runs rather than after.
#[derive(Clone, Debug)]
pub struct QosMonitor {
    crash: Option<Nanos>,
    state: bool,
    open_since: Option<Nanos>,
    mistakes: u32,
    mistake_time: Nanos,
    longest_mistake: Nanos,
    last_sample: Option<Nanos>,
}

impl QosMonitor {
    /// Creates a monitor for a target that crashes at `crash` (ground
    /// truth; `None` for a target that never crashes during the
    /// observation).
    #[must_use]
    pub fn new(crash: Option<Nanos>) -> Self {
        Self {
            crash,
            state: false,
            open_since: None,
            mistakes: 0,
            mistake_time: Nanos::ZERO,
            longest_mistake: Nanos::ZERO,
            last_sample: None,
        }
    }

    /// The ground-truth crash time this monitor judges against.
    #[must_use]
    pub fn crash(&self) -> Option<Nanos> {
        self.crash
    }

    /// Records the detector's answer at `now` (`true` = suspect).
    /// Samples must be fed in non-decreasing time order.
    pub fn sample(&mut self, now: Nanos, suspect: bool) {
        if let Some(prev) = self.last_sample {
            debug_assert!(now >= prev, "samples must be time-ordered");
        }
        self.last_sample = Some(now);
        match (self.state, suspect) {
            (false, true) => self.open_since = Some(now),
            (true, false) => {
                if let Some(start) = self.open_since.take() {
                    // A closed episode is a mistake; clip it to the crash
                    // (post-crash suspicion of a crashed target is not a
                    // mistake). This matches the batch clipping, where
                    // the horizon is min(crash, end) and every closed
                    // episode ends at or before `end`.
                    let (s, e) = match self.crash {
                        Some(c) => (start.min(c), now.min(c)),
                        None => (start, now),
                    };
                    if e > s {
                        self.mistakes += 1;
                        let d = e.saturating_sub(s);
                        self.mistake_time = self.mistake_time.saturating_add(d);
                        self.longest_mistake = self.longest_mistake.max(d);
                    }
                }
            }
            _ => {}
        }
        self.state = suspect;
    }

    /// The current QoS report as of observation time `end` — equal to
    /// what [`QosTracker::finalize`] computes from the full sample list.
    ///
    /// `end` must be at or after the last fed sample: closed episodes
    /// are folded eagerly, so a report horizon that rewinds behind
    /// already-folded samples cannot un-count them (the batch tracker,
    /// which keeps the episode list, would clip them to `end`).
    #[must_use]
    pub fn report(&self, end: Nanos) -> QosReport {
        if let Some(last) = self.last_sample {
            debug_assert!(
                end >= last,
                "report horizon {end} precedes the last sample {last}"
            );
        }
        let truth_horizon = self.crash.unwrap_or(end).min(end);
        let mut mistakes = self.mistakes;
        let mut mistake_time = self.mistake_time;
        let mut longest_mistake = self.longest_mistake;
        let mut detection_time = None;
        if let Some(start) = self.open_since {
            match self.crash {
                Some(c) if end >= c => {
                    // The open suspicion covers the crash: a detection.
                    detection_time = Some(start.saturating_sub(c));
                    if start < c {
                        mistakes += 1;
                        let d = c.saturating_sub(start);
                        mistake_time = mistake_time.saturating_add(d);
                        longest_mistake = longest_mistake.max(d);
                    }
                }
                _ => {
                    // Still a mistake in progress (no crash, or the crash
                    // lies beyond the observation end).
                    if start < truth_horizon {
                        mistakes += 1;
                        let d = truth_horizon.saturating_sub(start);
                        mistake_time = mistake_time.saturating_add(d);
                        longest_mistake = longest_mistake.max(d);
                    }
                }
            }
        }
        let truth_secs = truth_horizon.as_secs_f64();
        QosReport {
            detection_time,
            mistakes,
            mistake_rate: if truth_secs > 0.0 {
                f64::from(mistakes) / truth_secs
            } else {
                0.0
            },
            avg_mistake_duration: if mistakes > 0 {
                Nanos::from_nanos(mistake_time.as_nanos() / u64::from(mistakes))
            } else {
                Nanos::ZERO
            },
            longest_mistake,
            query_accuracy: if truth_horizon > Nanos::ZERO {
                1.0 - mistake_time.as_nanos() as f64 / truth_horizon.as_nanos() as f64
            } else {
                1.0
            },
        }
    }
}

/// QoS metrics of one observer–target pair.
#[derive(Clone, Debug)]
pub struct QosReport {
    /// `T_D`: crash → start of the permanent suspicion. `None` if the
    /// target never crashed or the crash was never detected.
    pub detection_time: Option<Nanos>,
    /// Number of false-suspicion episodes.
    pub mistakes: u32,
    /// `λ_M`: mistakes per second of pre-crash operation.
    pub mistake_rate: f64,
    /// `T_M`: mean mistake duration.
    pub avg_mistake_duration: Nanos,
    /// The single longest mistake episode (clipped like the rest). The
    /// mean hides a gray-failure signature — many short mistakes and one
    /// crushing outage-length one average out — so the weather
    /// experiments (E15) read this tail metric alongside `T_M`.
    pub longest_mistake: Nanos,
    /// `P_A`: fraction of pre-crash time spent (correctly) trusting.
    pub query_accuracy: f64,
}

/// Scenario parameters for the single-link QoS harness.
#[derive(Clone, Debug)]
pub struct QosScenario {
    /// Heartbeat period.
    pub period: Nanos,
    /// Network loss probability (independent Bernoulli losses).
    pub loss: f64,
    /// Optional Gilbert–Elliott burst-loss override
    /// `(p_enter, p_exit, loss_in_burst)`; takes precedence over `loss`.
    pub burst: Option<(f64, f64, f64)>,
    /// Minimum one-way delay.
    pub min_delay: Nanos,
    /// Maximum one-way delay.
    pub max_delay: Nanos,
    /// Target crash time, if any.
    pub crash_at: Option<Nanos>,
    /// Observation duration.
    pub duration: Nanos,
    /// Sampling interval for the observer's query loop.
    pub sample_every: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QosScenario {
    fn default() -> Self {
        Self {
            period: Nanos::from_millis(100),
            loss: 0.0,
            burst: None,
            min_delay: Nanos::from_millis(2),
            max_delay: Nanos::from_millis(10),
            crash_at: None,
            duration: Nanos::from_millis(60_000),
            sample_every: Nanos::from_millis(5),
            seed: 0,
        }
    }
}

/// Runs the two-node scenario — `p1` heartbeats, `p0` observes with the
/// given estimator — and returns the observer's QoS report about `p1`.
pub fn evaluate_qos<E: ArrivalEstimator + Clone>(
    prototype: E,
    scenario: &QosScenario,
) -> QosReport {
    let clock = VirtualClock::new();
    let base = NetworkConfig::reliable(scenario.min_delay, scenario.max_delay);
    let config = match scenario.burst {
        Some((p_enter, p_exit, loss_in_burst)) => {
            base.with_burst_loss(p_enter, p_exit, loss_in_burst)
        }
        None => base.with_loss(scenario.loss),
    }
    .with_seed(scenario.seed);
    let net = InMemoryNetwork::new(2, config, clock.clone());
    let observer_id = ProcessId::new(0);
    let target_id = ProcessId::new(1);
    let mut observer = DetectorNode::new(
        2,
        prototype.clone(),
        net.endpoint(observer_id),
        clock.clone(),
        scenario.period,
    );
    let mut target = DetectorNode::new(
        2,
        prototype,
        net.endpoint(target_id),
        clock.clone(),
        scenario.period,
    );
    let mut monitor = QosMonitor::new(scenario.crash_at);
    let mut crashed = false;
    while clock.now() < scenario.duration {
        let now = clock.now();
        if let Some(c) = scenario.crash_at {
            if !crashed && now >= c {
                crashed = true;
                net.take_down(target_id);
            }
        }
        if !crashed {
            target.poll();
        }
        let suspects = observer.poll();
        monitor.sample(now, suspects.contains(target_id));
        clock.advance(scenario.sample_every);
    }
    monitor.report(scenario.duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    #[test]
    fn tracker_counts_mistakes_and_durations() {
        let mut t = QosTracker::new();
        t.sample(ms(0), false);
        t.sample(ms(10), true); // mistake 1: [10, 30)
        t.sample(ms(30), false);
        t.sample(ms(50), true); // mistake 2: [50, 60)
        t.sample(ms(60), false);
        let report = t.finalize(None, ms(100));
        assert_eq!(report.mistakes, 2);
        assert_eq!(report.avg_mistake_duration.as_millis(), 15);
        assert_eq!(
            report.longest_mistake.as_millis(),
            20,
            "the tail metric keeps the worst episode the mean dilutes"
        );
        assert!((report.query_accuracy - 0.7).abs() < 1e-9);
        assert!(report.detection_time.is_none());
    }

    #[test]
    fn tracker_computes_detection_time() {
        let mut t = QosTracker::new();
        t.sample(ms(0), false);
        t.sample(ms(120), true); // permanent: crash at 100 → T_D = 20ms
        let report = t.finalize(Some(ms(100)), ms(500));
        assert_eq!(report.detection_time.unwrap().as_millis(), 20);
        assert_eq!(report.mistakes, 0);
    }

    #[test]
    fn premature_final_suspicion_counts_pre_crash_as_mistake() {
        let mut t = QosTracker::new();
        t.sample(ms(0), false);
        t.sample(ms(80), true); // began before the crash at 100
        let report = t.finalize(Some(ms(100)), ms(500));
        assert_eq!(report.detection_time.unwrap(), Nanos::ZERO);
        assert_eq!(report.mistakes, 1);
        assert_eq!(report.avg_mistake_duration.as_millis(), 20);
    }

    /// The incremental monitor reproduces the tracker's numbers on the
    /// same sample streams (the exhaustive check is the property test in
    /// `tests/prop_qos.rs`; these are the documented edge cases).
    #[test]
    fn monitor_matches_tracker_on_the_edge_cases() {
        type Case = (Vec<(Nanos, bool)>, Option<Nanos>, Nanos);
        let cases: Vec<Case> = vec![
            // Two closed mistakes, no crash.
            (
                vec![
                    (ms(0), false),
                    (ms(10), true),
                    (ms(30), false),
                    (ms(50), true),
                    (ms(60), false),
                ],
                None,
                ms(100),
            ),
            // Clean detection.
            (
                vec![(ms(0), false), (ms(120), true)],
                Some(ms(100)),
                ms(500),
            ),
            // Premature final suspicion straddling the crash.
            (vec![(ms(0), false), (ms(80), true)], Some(ms(100)), ms(500)),
            // Open mistake with the crash beyond the observation end.
            (vec![(ms(0), false), (ms(80), true)], Some(ms(900)), ms(500)),
            // Closed episode entirely after the crash: not a mistake.
            (
                vec![(ms(0), false), (ms(150), true), (ms(180), false)],
                Some(ms(100)),
                ms(500),
            ),
            // No samples at all.
            (vec![], None, ms(100)),
        ];
        for (samples, crash, end) in cases {
            let mut tracker = QosTracker::new();
            let mut monitor = QosMonitor::new(crash);
            for &(t, s) in &samples {
                tracker.sample(t, s);
                monitor.sample(t, s);
            }
            let batch = tracker.finalize(crash, end);
            let live = monitor.report(end);
            assert_eq!(live.detection_time, batch.detection_time, "{samples:?}");
            assert_eq!(live.mistakes, batch.mistakes, "{samples:?}");
            assert_eq!(
                live.avg_mistake_duration, batch.avg_mistake_duration,
                "{samples:?}"
            );
            assert_eq!(live.longest_mistake, batch.longest_mistake, "{samples:?}");
            assert_eq!(
                live.mistake_rate.to_bits(),
                batch.mistake_rate.to_bits(),
                "{samples:?}"
            );
            assert_eq!(
                live.query_accuracy.to_bits(),
                batch.query_accuracy.to_bits(),
                "{samples:?}"
            );
        }
    }

    /// Unlike the tracker, the monitor answers mid-stream in O(1): the
    /// report after a prefix equals finalizing that prefix.
    #[test]
    fn monitor_reports_are_valid_mid_stream() {
        let crash = Some(ms(100));
        let samples = [
            (ms(0), false),
            (ms(40), true),
            (ms(60), false),
            (ms(120), true),
        ];
        let mut monitor = QosMonitor::new(crash);
        let mut tracker = QosTracker::new();
        for (i, &(t, s)) in samples.iter().enumerate() {
            monitor.sample(t, s);
            tracker.sample(t, s);
            let end = t;
            let live = monitor.report(end);
            let batch = tracker.finalize(crash, end);
            assert_eq!(live.mistakes, batch.mistakes, "prefix {i}");
            assert_eq!(live.detection_time, batch.detection_time, "prefix {i}");
        }
    }

    #[test]
    fn reliable_network_yields_no_mistakes_for_all_estimators() {
        let scenario = QosScenario {
            duration: ms(20_000),
            ..QosScenario::default()
        };
        let fixed = evaluate_qos(FixedTimeout::new(ms(400)), &scenario);
        let chen = evaluate_qos(ChenEstimator::new(ms(100), 16, ms(400)), &scenario);
        let jac = evaluate_qos(JacobsonEstimator::new(4.0, ms(400)), &scenario);
        let phi = evaluate_qos(PhiAccrual::new(3.0, 32, ms(400)), &scenario);
        for (name, r) in [
            ("fixed", &fixed),
            ("chen", &chen),
            ("jacobson", &jac),
            ("phi", &phi),
        ] {
            assert_eq!(r.mistakes, 0, "{name}: {r:?}");
            assert!(r.query_accuracy > 0.999, "{name}: {r:?}");
        }
    }

    #[test]
    fn crash_is_detected_by_all_estimators() {
        let scenario = QosScenario {
            crash_at: Some(ms(10_000)),
            duration: ms(20_000),
            ..QosScenario::default()
        };
        let fixed = evaluate_qos(FixedTimeout::new(ms(400)), &scenario);
        let chen = evaluate_qos(ChenEstimator::new(ms(100), 16, ms(400)), &scenario);
        let jac = evaluate_qos(JacobsonEstimator::new(4.0, ms(400)), &scenario);
        let phi = evaluate_qos(PhiAccrual::new(3.0, 32, ms(400)), &scenario);
        for (name, r) in [
            ("fixed", &fixed),
            ("chen", &chen),
            ("jacobson", &jac),
            ("phi", &phi),
        ] {
            let td = r
                .detection_time
                .unwrap_or_else(|| panic!("{name} missed the crash"));
            assert!(
                td.as_millis() < 2_000,
                "{name}: detection took {td} (report {r:?})"
            );
        }
    }

    #[test]
    fn lossy_network_hurts_fixed_short_timeouts_most() {
        let scenario = QosScenario {
            loss: 0.15,
            duration: ms(60_000),
            seed: 5,
            ..QosScenario::default()
        };
        // A timeout barely above the period: every lost heartbeat is a
        // mistake.
        let aggressive = evaluate_qos(FixedTimeout::new(ms(150)), &scenario);
        // Adaptive detectors ride it out far better.
        let phi = evaluate_qos(PhiAccrual::new(5.0, 64, ms(400)), &scenario);
        assert!(
            aggressive.mistakes > phi.mistakes,
            "aggressive fixed {} vs phi {}",
            aggressive.mistakes,
            phi.mistakes
        );
    }
}
