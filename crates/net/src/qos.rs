//! QoS metrics for failure detectors (Chen–Toueg–Aguilera, IEEE TC 2002),
//! the scores experiment E7 reads off a two-node
//! [`crate::online::OnlineRunner`].
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
//! incremental accumulator the fleet driver samples
//! ([`crate::online::OnlineRunner`]). [`QosTracker`] is
//! the **reference** — it keeps the whole episode list and computes the
//! same report post hoc — that `tests/prop_qos.rs` compares the monitor
//! against, bitwise (and checks against a per-tick brute force in
//! turn); no non-test code calls it.

use crate::clock::Nanos;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{
        ArrivalEstimator, ChenEstimator, FixedTimeout, JacobsonEstimator, PhiAccrual,
    };
    use crate::online::{Fault, FaultSchedule, OnlineRunner, OnlineScenario};
    use rfd_core::ProcessId;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    /// E7's layout: a two-node fleet at the scenario's defaults, the
    /// target `p0` (crashing at `crash`, if any) judged by `p1`.
    fn two_node<E: ArrivalEstimator + Clone>(
        prototype: E,
        crash: Option<Nanos>,
        scenario: OnlineScenario,
    ) -> QosReport {
        let (target, observer) = (ProcessId::new(0), ProcessId::new(1));
        let schedule = crash.map_or_else(FaultSchedule::new, |at| {
            FaultSchedule::new().at(at, Fault::Crash(target))
        });
        let mut runner = OnlineRunner::new(
            prototype,
            OnlineScenario {
                n: 2,
                schedule,
                ..scenario
            },
        );
        runner.run_to_end();
        runner
            .report(observer, target)
            .expect("an off-diagonal pair")
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
        let scenario = OnlineScenario {
            duration: ms(20_000),
            ..OnlineScenario::default()
        };
        let fixed = two_node(FixedTimeout::new(ms(400)), None, scenario.clone());
        let chen = two_node(
            ChenEstimator::new(ms(100), 16, ms(400)),
            None,
            scenario.clone(),
        );
        let jac = two_node(JacobsonEstimator::new(4.0, ms(400)), None, scenario.clone());
        let phi = two_node(PhiAccrual::new(3.0, 32, ms(400)), None, scenario);
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
        let crash = Some(ms(10_000));
        let scenario = OnlineScenario {
            duration: ms(20_000),
            ..OnlineScenario::default()
        };
        let fixed = two_node(FixedTimeout::new(ms(400)), crash, scenario.clone());
        let chen = two_node(
            ChenEstimator::new(ms(100), 16, ms(400)),
            crash,
            scenario.clone(),
        );
        let jac = two_node(
            JacobsonEstimator::new(4.0, ms(400)),
            crash,
            scenario.clone(),
        );
        let phi = two_node(PhiAccrual::new(3.0, 32, ms(400)), crash, scenario);
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
        let scenario = OnlineScenario {
            loss: 0.15,
            duration: ms(60_000),
            seed: 5,
            ..OnlineScenario::default()
        };
        // A timeout barely above the period: every lost heartbeat is a
        // mistake.
        let aggressive = two_node(FixedTimeout::new(ms(150)), None, scenario.clone());
        // Adaptive detectors ride it out far better.
        let phi = two_node(PhiAccrual::new(5.0, 64, ms(400)), None, scenario);
        assert!(
            aggressive.mistakes > phi.mistakes,
            "aggressive fixed {} vs phi {}",
            aggressive.mistakes,
            phi.mistakes
        );
    }
}
