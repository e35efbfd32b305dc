//! E15 — the adversarial weather catalogue: estimator zoo × composed
//! weathers.
//!
//! E7–E14 stress the stack with fail-stop churn: crashes, symmetric
//! partitions, heals. Real deployments misbehave in richer ways — links
//! fail in one direction, flap, duplicate and reorder traffic; nodes go
//! *gray* (alive but slow); clocks drift. E15 sweeps the full estimator
//! line-up across the [`rfd_net::weather`] catalogue and tabulates
//! which QoS claims survive which weathers, with the service-safety
//! gates asserted on **every** cell:
//!
//! * uniform agreement across all live logs (no value disagreement at
//!   any index);
//! * no log forks (live logs converge once the weather passes);
//! * no acked decision lost.
//!
//! Each cell also runs the detector-only fleet under the same weather
//! and reduces the observer→target QoS pair (`p0` watches `p1`, both
//! alive throughout every weather): mistake count, mean and longest
//! mistake duration, query accuracy. The per-estimator contrast gate
//! pins the headline claim: a crash-only schedule never exposes a
//! false-suspicion tail on a live pair (`λ_M = 0`, `longest_M = 0`),
//! while gray failure — heartbeats arriving, but late — degrades it for
//! **every** estimator, and flapping degrades at least the aggressive
//! fixed timeout. Deterministic per seed, pinned by the tests.

use crate::estimators::Estimators;
use crate::table::Table;
use crate::{mean, ms, p};
use rfd_core::ProcessSet;
use rfd_net::clock::{ClockSkew, Nanos};
use rfd_net::online::{OnlineRunner, OnlineScenario};
use rfd_net::qos::QosReport;
use rfd_net::service::{run_service, ServiceReport, ServiceScenario};
use rfd_net::weather::Weather;
use rfd_sim::Campaign;

/// The QoS pair every cell reduces: `OBSERVER` watches `TARGET`. Both
/// stay alive under every weather, so any suspicion on this pair is a
/// mistake by definition.
const OBSERVER: usize = 0;
const TARGET: usize = 1;

/// The weather catalogue. Active windows sit inside 2–7 s of the 12 s
/// run so every weather has passed with ≥ 5 s of calm left for the
/// fleet to reconverge before the gates fire.
fn catalogue() -> Vec<(&'static str, Weather)> {
    let zone = {
        let mut z = ProcessSet::singleton(p(3));
        z.insert(p(4));
        z
    };
    vec![
        // The fail-stop baseline: one clean crash outside the QoS pair.
        (
            "crash-only",
            Weather::new().correlated_crash(ProcessSet::singleton(p(4)), ms(4_000), None),
        ),
        // p1's heartbeats to p0 vanish; every other direction flows.
        (
            "one-way",
            Weather::new().one_way(
                ProcessSet::singleton(p(TARGET)),
                ProcessSet::singleton(p(OBSERVER)),
                ms(3_000),
                Some(ms(7_000)),
            ),
        ),
        // p0 ↔ p1 blocks and heals on a 400 ms square wave.
        (
            "flapping",
            Weather::new().flap(p(OBSERVER), p(TARGET), ms(400), ms(3_000), ms(7_000)),
        ),
        // 30% of all forwarded datagrams are cloned for the whole run.
        (
            "duplication",
            Weather::new().duplicate(300, ms(2_000), None),
        ),
        // 20% of datagrams held 40 ms, so later sends overtake them —
        // out-of-order delivery bounded in time.
        (
            "reordering",
            Weather::new().reorder(200, ms(40), ms(2_000), None),
        ),
        // p1 goes gray: alive and sending, but 900 ms late — past every
        // estimator's 600 ms cap, the slow-but-alive worst case.
        (
            "gray",
            Weather::new().gray(p(TARGET), ms(900), ms(3_000), Some(ms(7_000))),
        ),
        // p1's clock runs at half rate: locally honest heartbeats,
        // globally 200 ms apart.
        (
            "clock-skew",
            Weather::new().skew(p(TARGET), ClockSkew::ratio(1, 2)),
        ),
        // A whole zone ({p3, p4}) fails as one event and recovers as one.
        (
            "zone-crash",
            Weather::new().correlated_crash(zone, ms(4_000), Some(ms(7_000))),
        ),
    ]
}

/// The shared fleet shape: n=5 (a 3-node majority survives the
/// correlated zone crash), 100 ms heartbeats, 12 s of virtual time.
fn base_online(seed: u64) -> OnlineScenario {
    OnlineScenario {
        n: 5,
        period: ms(100),
        duration: ms(12_000),
        sample_every: ms(5),
        seed,
        heal_merge: true,
        ..OnlineScenario::default()
    }
}

/// The decision-service workload under `weather`: commands every 500 ms
/// from the three always-majority nodes, spanning calm, weather, and
/// recovery phases.
fn scenario(weather: &Weather, seed: u64) -> ServiceScenario {
    let mut s = ServiceScenario {
        online: weather.apply_to(base_online(seed)),
        ..ServiceScenario::default()
    };
    let mut at = 1_000;
    let mut value = 500;
    while at <= 9_000 {
        s = s.command(ms(at), p((value as usize) % 3), value);
        at += 500;
        value += 1;
    }
    s
}

/// One cell's reduced metrics: service-side decisions plus the
/// observer→target QoS pair.
#[derive(Clone, Copy)]
struct Cell {
    decided: u64,
    mistakes: u32,
    avg_mistake: Nanos,
    longest_mistake: Nanos,
    accuracy: f64,
}

/// Gates one cell's service report: the three safety properties every
/// weather must leave intact.
fn gate(label: &str, report: &ServiceReport) {
    assert!(
        report.agreement_holds(),
        "[{label}] uniform agreement violated under weather"
    );
    assert!(
        report.live_logs_converged(),
        "[{label}] live logs forked and failed to reconverge"
    );
    assert_eq!(
        report.membership.decisions_lost, 0,
        "[{label}] the weather cost an acked decision"
    );
    assert!(
        report.decided_len() >= 1,
        "[{label}] the service decided nothing all run"
    );
}

/// Runs the detector-only fleet under `weather` and reduces the
/// observer→target pair.
fn qos_pair(proto: Estimators, weather: &Weather, seed: u64) -> QosReport {
    let mut runner = OnlineRunner::new(proto, weather.apply_to(base_online(seed)));
    runner.run_to_end();
    runner
        .report(p(OBSERVER), p(TARGET))
        .expect("the observer pair is distinct and monitored")
}

/// Runs E15 and returns the result table.
///
/// # Panics
///
/// Panics if any cell violates a safety gate or the per-estimator
/// crash-vs-gray contrast fails (see the module docs).
#[must_use]
pub fn run_experiment() -> Table {
    let seeds = 2;
    let mut table = Table::new(
        "E15 — adversarial weather catalogue (n=5, period 100ms, p0 observes p1; agreement + no-fork gated per cell)",
        &[
            "estimator",
            "weather",
            "decided",
            "λ_M (mistakes)",
            "T_M (mean)",
            "longest_M",
            "P_A (accuracy)",
        ],
    );
    let mut flap_degraded_someone = false;
    for (est_name, proto) in &Estimators::line_up(400) {
        let mut cells: Vec<(&'static str, Cell)> = Vec::new();
        for (weather_name, weather) in catalogue() {
            let label = format!("{est_name}/{weather_name}");
            let runs: Vec<Cell> = Campaign::sweep(0..seeds).map(|seed| {
                let report = run_service(proto.clone(), &scenario(&weather, seed));
                gate(&label, &report);
                let qos = qos_pair(proto.clone(), &weather, seed);
                Cell {
                    decided: report.decided_len(),
                    mistakes: qos.mistakes,
                    avg_mistake: qos.avg_mistake_duration,
                    longest_mistake: qos.longest_mistake,
                    accuracy: qos.query_accuracy,
                }
            });
            let n = runs.len() as u64;
            let cell = Cell {
                decided: mean(runs.iter().map(|c| c.decided), n),
                mistakes: runs.iter().map(|c| c.mistakes).max().unwrap_or(0),
                avg_mistake: Nanos::from_nanos(mean(
                    runs.iter().map(|c| c.avg_mistake.as_nanos()),
                    n,
                )),
                longest_mistake: runs
                    .iter()
                    .map(|c| c.longest_mistake)
                    .max()
                    .unwrap_or(Nanos::ZERO),
                accuracy: runs.iter().map(|c| c.accuracy).sum::<f64>() / n as f64,
            };
            table.push(vec![
                est_name.into(),
                weather_name.into(),
                format!("{}", cell.decided),
                format!("{}", cell.mistakes),
                format!("{}ms", cell.avg_mistake.as_millis()),
                format!("{}ms", cell.longest_mistake.as_millis()),
                format!("{:.4}", cell.accuracy),
            ]);
            cells.push((weather_name, cell));
        }
        flap_degraded_someone |= contrast_gate(est_name, &cells);
    }
    assert!(
        flap_degraded_someone,
        "no estimator registered a single mistake under a flapping link"
    );
    table
}

/// The per-estimator crash-vs-gray contrast. Returns whether flapping
/// degraded this estimator (gated in aggregate by the caller).
fn contrast_gate(est_name: &str, cells: &[(&'static str, Cell)]) -> bool {
    let find = |weather: &str| -> Cell {
        cells.iter().find(|(w, _)| *w == weather).map_or_else(
            || panic!("[{est_name}] missing cell {weather}"),
            |(_, c)| *c,
        )
    };
    let baseline = find("crash-only");
    let gray = find("gray");
    let flap = find("flapping");
    assert_eq!(
        baseline.mistakes, 0,
        "[{est_name}] a crash-only schedule must never make the live \
         pair suspect each other"
    );
    assert_eq!(
        baseline.longest_mistake,
        Nanos::ZERO,
        "[{est_name}] crash-only weather exposed a mistake tail"
    );
    assert!(
        gray.mistakes >= 1,
        "[{est_name}] 900ms gray failure past the 600ms cap must \
         register at least one mistake"
    );
    assert!(
        gray.longest_mistake > Nanos::ZERO,
        "[{est_name}] gray failure must expose the longest-mistake tail \
         crash-only never shows"
    );
    flap.mistakes >= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_net::estimator::ChenEstimator;
    use rfd_net::online::reports_equal;
    use rfd_net::service::ServiceRunner;

    #[test]
    fn e15_catalogue_covers_every_weather_for_every_estimator() {
        // `gate` asserts safety per cell and `contrast_gate` the
        // crash-vs-gray claim per estimator; here additionally: the
        // table is complete.
        let table = run_experiment();
        assert_eq!(table.len(), 32, "4 estimators × 8 weathers");
    }

    #[test]
    fn e15_cells_are_deterministic_per_seed() {
        let (_, gray) = catalogue().remove(5);
        let sc = scenario(&gray, 3);
        let mut runner_a = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), sc.clone());
        let mut runner_b = ServiceRunner::new(ChenEstimator::new(ms(150), 16, ms(600)), sc);
        assert_eq!(runner_a.run_to_end(), runner_b.run_to_end());
        let (a, b) = (runner_a.report(), runner_b.report());
        assert_eq!(a.logs, b.logs);
        assert_eq!(a.bases, b.bases);
        assert_eq!(
            a.membership.weather_directives,
            b.membership.weather_directives
        );
        assert!(
            a.membership.weather_directives >= 2,
            "the gray on/off directives are counted"
        );
        let qa = qos_pair(
            Estimators::Chen(ChenEstimator::new(ms(150), 16, ms(600))),
            &gray,
            3,
        );
        let qb = qos_pair(
            Estimators::Chen(ChenEstimator::new(ms(150), 16, ms(600))),
            &gray,
            3,
        );
        assert!(reports_equal(&qa, &qb), "QoS timelines replay bitwise");
    }
}
