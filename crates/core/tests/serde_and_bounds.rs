//! Boundary conditions of the model types: the largest and smallest
//! systems, and `CheckParams` window arithmetic.

use rfd_core::oracles::{Oracle, PerfectOracle};
use rfd_core::{
    class_report, CheckParams, ClassId, FailurePattern, ProcessId, Time, MAX_PROCESSES,
};

#[test]
fn model_works_at_the_maximum_system_size() {
    // n = 128: the full bitset width.
    let n = MAX_PROCESSES;
    let mut f = FailurePattern::new(n);
    f.set_crash(ProcessId::new(0), Time::new(10));
    f.set_crash(ProcessId::new(n - 1), Time::new(20));
    assert_eq!(f.num_faulty(), 2);
    assert_eq!(f.correct().len(), n - 2);
    let oracle = PerfectOracle::new(5, 3);
    let horizon = Time::new(300);
    let h = oracle.generate(&f, horizon, 0);
    let report = class_report(&f, &h, &CheckParams::new(horizon));
    assert!(report.is_in(ClassId::Perfect));
}

#[test]
fn two_process_minimum_system() {
    // n = 2 (< the paper's n > 3, but the model layer itself is sound
    // there and smaller systems make good unit fixtures).
    let f = FailurePattern::new(2).with_crash(ProcessId::new(0), Time::new(5));
    let h = PerfectOracle::new(2, 0).generate(&f, Time::new(100), 0);
    assert!(h
        .value(ProcessId::new(1), Time::new(7))
        .contains(ProcessId::new(0)));
}

#[test]
fn check_params_window_arithmetic() {
    let p = CheckParams::with_margin(Time::new(100), 100);
    assert_eq!(p.window_start(), Time::ZERO);
    let p = CheckParams::with_margin(Time::new(100), 0);
    assert_eq!(p.window_start(), Time::new(100));
}

#[test]
#[should_panic(expected = "margin exceeds horizon")]
fn check_params_rejects_oversized_margin() {
    let _ = CheckParams::with_margin(Time::new(10), 11);
}
