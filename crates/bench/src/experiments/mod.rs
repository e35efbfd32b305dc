//! The experiment suite: one module per derived experiment E1–E16.
//!
//! The paper (a theory paper) has no numbered tables or figures; each
//! experiment here regenerates one of its theorems, constructions or
//! counterexamples as an empirical table. `docs/EXPERIMENTS.md` is the
//! handbook: per experiment, the claim it reproduces, the paper
//! section, how to run it, and what pins it.

pub mod e10_lattice;
pub mod e11_online;
pub mod e12_reconverge;
pub mod e13_service;
pub mod e14_rejoin;
pub mod e15_weather;
pub mod e16_soak;
pub mod e1_totality;
pub mod e2_reduction;
pub mod e3_trb;
pub mod e4_nonuniform;
pub mod e5_collapse;
pub mod e6_marabout;
pub mod e7_qos;
pub mod e8_membership;
pub mod e9_crossover;
pub mod e9b_ablation;

use crate::table::Table;

/// An experiment entry point.
pub type ExperimentFn = fn() -> Table;

/// The experiment catalog, in suite order, **without running anything**
/// — callers that want a subset (the `experiments` binary's positional
/// ids) filter first and pay only for what they select.
#[must_use]
pub fn catalog() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1", e1_totality::run_experiment),
        ("E2", e2_reduction::run_experiment),
        ("E3", e3_trb::run_experiment),
        ("E4", e4_nonuniform::run_experiment),
        ("E5", e5_collapse::run_experiment),
        ("E6", e6_marabout::run_experiment),
        ("E7", e7_qos::run_experiment),
        ("E7B", e7_qos::run_burst_ablation),
        ("E8", e8_membership::run_experiment),
        ("E9", e9_crossover::run_experiment),
        ("E9B", e9b_ablation::run_experiment),
        ("E10", e10_lattice::run_experiment),
        ("E11", e11_online::run_experiment),
        ("E11B", e11_online::run_membership_ablation),
        ("E12", e12_reconverge::run_experiment),
        ("E13", e13_service::run_experiment),
        ("E14", e14_rejoin::run_experiment),
        ("E15", e15_weather::run_experiment),
        ("E16", e16_soak::run_experiment),
    ]
}

/// Runs every experiment, returning `(id, table)` pairs.
#[must_use]
pub fn run_all() -> Vec<(&'static str, Table)> {
    catalog().into_iter().map(|(id, run)| (id, run())).collect()
}
