//! # rfd-bench — the experiment harness of the DSN 2002 reproduction
//!
//! Regenerates every result of *A Realistic Look At Failure Detectors*
//! as a table (the paper is a theory paper with no numbered
//! tables/figures; `docs/EXPERIMENTS.md` is the handbook of the
//! experiment set E1–E16 — claim, paper section, columns and pinning
//! tests per experiment):
//!
//! | Exp | Paper source | Claim |
//! |-----|--------------|-------|
//! | E1  | Lemma 4.1    | realistic-detector consensus is total |
//! | E2  | Lemma 4.2    | `T_{D⇒P}` emulates a Perfect detector |
//! | E3  | Prop 5.1     | TRB ⟷ `P` |
//! | E4  | §6.2         | uniform ≻ correct-restricted consensus |
//! | E5  | §6.3         | `S ∩ R ⊂ P` (the collapse) |
//! | E6  | §6.1         | clairvoyance breaks the lower bound |
//! | E7  | §1.3         | QoS of adaptive heartbeat detectors |
//! | E8  | §1.3         | group membership emulates `P` |
//! | E9  | §1.2/§4      | the `◇S` majority crossover |
//! | E10 | §2.5         | class lattice containments are strict |
//! | E11 | §1.3         | online detection under churn (streaming driver) |
//! | E12 | §1.3         | partition-heal view reconvergence (heal-merge membership) |
//! | E13 | §1.1/§1.3    | the live decision service: consensus over emulated `P`, post-heal state transfer |
//! | E14 | §1.3         | snapshot fast rejoin vs full-suffix replay |
//! | E15 | §1.1/§1.3    | the adversarial weather catalogue |
//! | E16 | §2           | the long-horizon lossy soak: the retransmission plane under datagram loss |
//!
//! Run `cargo run -p rfd-bench --bin experiments` for the full suite, or
//! `--bin experiments -- E7` for one experiment. The runtime's cost is
//! measured by the `service_e2e` benchmark (`src/bin/service_e2e/`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod estimators;
pub mod experiments;
pub mod table;

pub use estimators::Estimators;
pub use table::Table;

use rfd_core::ProcessId;
use rfd_net::clock::Nanos;
use rfd_net::qos::QosReport;

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// The integer mean of `n` values (zero for none).
fn mean(values: impl Iterator<Item = u64>, n: u64) -> u64 {
    values.sum::<u64>() / n.max(1)
}

/// One seed-averaged report: means throughout, except `detection_time`
/// (the mean over the seeds that detected at all) and `longest_mistake`
/// (the maximum).
fn mean_report(reports: &[QosReport]) -> QosReport {
    let n = reports.len() as f64;
    let det: Vec<u64> = reports
        .iter()
        .filter_map(|r| r.detection_time.map(Nanos::as_nanos))
        .collect();
    QosReport {
        detection_time: if det.is_empty() {
            None
        } else {
            Some(Nanos::from_nanos(
                det.iter().sum::<u64>() / det.len() as u64,
            ))
        },
        mistakes: (reports.iter().map(|r| f64::from(r.mistakes)).sum::<f64>() / n) as u32,
        mistake_rate: reports.iter().map(|r| r.mistake_rate).sum::<f64>() / n,
        avg_mistake_duration: Nanos::from_nanos(
            (reports
                .iter()
                .map(|r| r.avg_mistake_duration.as_nanos() as f64)
                .sum::<f64>()
                / n) as u64,
        ),
        longest_mistake: reports
            .iter()
            .map(|r| r.longest_mistake)
            .max()
            .unwrap_or(Nanos::ZERO),
        query_accuracy: reports.iter().map(|r| r.query_accuracy).sum::<f64>() / n,
    }
}
