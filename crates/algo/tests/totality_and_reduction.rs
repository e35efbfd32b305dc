//! Lemma 4.1 (totality) and Lemma 4.2 / Proposition 4.3 (the `T_{D⇒P}`
//! reduction), demonstrated end-to-end.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rfd_algo::consensus::{
    ConsensusAutomaton, FloodSetConsensus, RotatingConsensus, StrongConsensus,
};
use rfd_algo::reduction::PerfectEmulation;
use rfd_core::oracles::{EventuallyStrongOracle, Oracle, PerfectOracle};
use rfd_core::{class_report, CheckParams, ClassId, FailurePattern, ProcessId, Time};
use rfd_sim::{run, ticks_for_rounds, SimConfig, StopCondition};

const ROUNDS: u64 = 600;

fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

#[test]
fn strong_consensus_is_total_with_realistic_detector() {
    // Footnote 4: "the S-based consensus algorithm of [1] would be total
    // with a realistic failure detector." Every decision's causal chain
    // must contain every process not crashed at decision time.
    let mut rng = StdRng::seed_from_u64(0x41);
    let oracle = PerfectOracle::new(6, 3);
    for seed in 0..15u64 {
        let n = 5;
        let pattern = FailurePattern::random(n, n - 1, Time::new(ROUNDS), &mut rng);
        let history = oracle.generate(&pattern, ticks_for_rounds(n, ROUNDS), seed);
        let props = proposals(n);
        let automata = ConsensusAutomaton::<StrongConsensus<u64>>::fleet(&props);
        let config = SimConfig::new(seed, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
        let result = run(&pattern, &history, automata, &config);
        assert_eq!(
            result.trace.check_totality(&pattern),
            Ok(()),
            "seed={seed} pattern={pattern:?}"
        );
    }
}

#[test]
fn floodset_consensus_is_total_with_realistic_detector() {
    let mut rng = StdRng::seed_from_u64(0x42);
    let oracle = PerfectOracle::new(6, 3);
    for seed in 0..15u64 {
        let n = 5;
        let pattern = FailurePattern::random(n, n - 1, Time::new(ROUNDS), &mut rng);
        let history = oracle.generate(&pattern, ticks_for_rounds(n, ROUNDS), seed);
        let props = proposals(n);
        let automata = ConsensusAutomaton::<FloodSetConsensus<u64>>::fleet(&props);
        let config = SimConfig::new(seed, ROUNDS).with_stop(StopCondition::EachCorrectOutput(1));
        let result = run(&pattern, &history, automata, &config);
        assert_eq!(
            result.trace.check_totality(&pattern),
            Ok(()),
            "seed={seed} pattern={pattern:?}"
        );
    }
}

#[test]
fn rotating_consensus_is_not_total() {
    // Footnote 4, other half: the ◇S algorithm consults only a majority.
    // Lemma 4.1's run R₁: delay every message from a correct process p₄
    // past the decision — the others decide without consulting it, so the
    // decision is non-total. (This is why ◇S escapes the reduction — it
    // needs a bounded f.)
    let n = 5;
    let pattern = FailurePattern::new(n); // failure-free: p4 is correct
    let oracle = EventuallyStrongOracle::new(8);
    let horizon = ticks_for_rounds(n, ROUNDS);
    let history = oracle.generate(&pattern, horizon, 0);
    let props = proposals(n);
    let hold = rfd_sim::Adversary::HoldFrom(ProcessId::new(4), horizon);
    let mut found_non_total = false;
    for seed in 0..20u64 {
        let automata = ConsensusAutomaton::<RotatingConsensus<u64>>::fleet(&props);
        let config = SimConfig::new(seed, ROUNDS)
            .with_adversary(hold.clone())
            .with_stop(StopCondition::EachCorrectOutput(1));
        let result = run(&pattern, &history, automata, &config);
        if !result.trace.events.is_empty() && result.trace.check_totality(&pattern).is_err() {
            found_non_total = true;
            break;
        }
    }
    assert!(
        found_non_total,
        "◇S consensus should exhibit a non-total decision within 20 seeds"
    );
}

#[test]
fn total_algorithms_block_rather_than_skip_a_silent_correct_process() {
    // Contrast with the above: under the same adversary, the *total*
    // S-based algorithm cannot decide — a realistic detector never
    // suspects the silent-but-correct p2, so every wait includes it.
    let n = 3;
    let pattern = FailurePattern::new(n);
    let oracle = PerfectOracle::new(6, 3);
    let horizon = ticks_for_rounds(n, ROUNDS);
    let history = oracle.generate(&pattern, horizon, 0);
    let props = proposals(n);
    let automata = ConsensusAutomaton::<StrongConsensus<u64>>::fleet(&props);
    let config = SimConfig::new(7, ROUNDS)
        .with_adversary(rfd_sim::Adversary::HoldFrom(ProcessId::new(2), horizon))
        .with_stop(StopCondition::EachCorrectOutput(1));
    let result = run(&pattern, &history, automata, &config);
    assert!(
        result.trace.events.is_empty(),
        "a total algorithm must consult p2 before deciding"
    );
}

/// Runs `T_{D⇒P}` over a total consensus core and checks the emulated
/// history against the `P` class predicates.
fn reduction_emulates_perfect(seed: u64, pattern: &FailurePattern) {
    let n = pattern.num_processes();
    let oracle = PerfectOracle::new(6, 3);
    let horizon = ticks_for_rounds(n, ROUNDS);
    let history = oracle.generate(pattern, horizon, seed);
    let automata = PerfectEmulation::<FloodSetConsensus<u64>>::fleet(n);
    let config = SimConfig::new(seed, ROUNDS);
    let result = run(pattern, &history, automata, &config);
    let emulated = result.emulated.expect("emulation must expose output(P)");
    // Check the emulated history over the portion of time the run
    // actually covered.
    let end = result.trace.end_time;
    let params = CheckParams::with_margin(end, end.ticks() / 10);
    let report = class_report(pattern, &emulated, &params);
    assert!(
        report.is_in(ClassId::Perfect),
        "seed={seed} pattern={pattern:?}\n completeness: {:?}\n accuracy: {:?}",
        report.strong_completeness,
        report.strong_accuracy
    );
    // Sanity: instances keep deciding (the emulation is live).
    for a in &result.automata {
        if pattern.correct().contains(ProcessId::new(
            result
                .automata
                .iter()
                .position(|x| core::ptr::eq(x, a))
                .unwrap(),
        )) {
            assert!(a.completed() > 1, "correct processes run many instances");
        }
    }
}

#[test]
fn reduction_emulates_perfect_failure_free() {
    reduction_emulates_perfect(1, &FailurePattern::new(4));
}

#[test]
fn reduction_emulates_perfect_with_one_crash() {
    let pattern = FailurePattern::new(4).with_crash(ProcessId::new(2), Time::new(200));
    reduction_emulates_perfect(2, &pattern);
}

#[test]
fn reduction_emulates_perfect_with_many_crashes() {
    // Unbounded-failure environment: 3 of 5 crash, staggered.
    let pattern = FailurePattern::new(5)
        .with_crash(ProcessId::new(0), Time::new(150))
        .with_crash(ProcessId::new(3), Time::new(400))
        .with_crash(ProcessId::new(4), Time::new(700));
    reduction_emulates_perfect(3, &pattern);
}

#[test]
fn reduction_emulates_perfect_random_sweep() {
    let mut rng = StdRng::seed_from_u64(0x44);
    for seed in 0..8u64 {
        // Crashes early enough that post-crash instances fit in budget.
        let pattern = FailurePattern::random(4, 3, Time::new(800), &mut rng);
        reduction_emulates_perfect(seed, &pattern);
    }
}

#[test]
fn reduction_suspicions_are_monotone() {
    // §4.3: output(P) only ever grows (suspicions are never retracted).
    let pattern = FailurePattern::new(4)
        .with_crash(ProcessId::new(1), Time::new(100))
        .with_crash(ProcessId::new(3), Time::new(300));
    let oracle = PerfectOracle::new(6, 3);
    let history = oracle.generate(&pattern, ticks_for_rounds(4, ROUNDS), 5);
    let automata = PerfectEmulation::<StrongConsensus<u64>>::fleet(4);
    let result = run(&pattern, &history, automata, &SimConfig::new(5, ROUNDS));
    for ix in 0..4 {
        let pid = ProcessId::new(ix);
        let mut prev = rfd_core::ProcessSet::empty();
        for ev in result.trace.outputs_of(pid) {
            assert!(
                prev.is_subset(&ev.value),
                "{pid}: output(P) shrank from {prev} to {}",
                ev.value
            );
            prev = ev.value;
        }
    }
}

#[test]
fn completeness_booster_yields_strongly_complete_history() {
    // CT Fig. 1 over the weak-witness oracle: the boosted emulated
    // history must satisfy strong completeness (and keep strong accuracy,
    // since gossip only spreads real crashes and sender-cleansing only
    // removes provably-alive processes).
    use rfd_algo::reduction::CompletenessBooster;
    use rfd_core::oracles::WeakWitnessOracle;
    let n = 5;
    let rounds = 500u64;
    let oracle = WeakWitnessOracle::new(5);
    for (seed, pattern) in [
        (
            1u64,
            FailurePattern::new(n).with_crash(ProcessId::new(2), Time::new(100)),
        ),
        (
            2,
            FailurePattern::new(n)
                .with_crash(ProcessId::new(0), Time::new(80))
                .with_crash(ProcessId::new(4), Time::new(300)),
        ),
    ] {
        let history = oracle.generate(&pattern, ticks_for_rounds(n, rounds), seed);
        // The input history itself is NOT strongly complete...
        let in_params = CheckParams::with_margin(
            ticks_for_rounds(n, rounds),
            ticks_for_rounds(n, rounds).ticks() / 10,
        );
        let in_report = class_report(&pattern, &history, &in_params);
        assert!(
            in_report.strong_completeness.is_err(),
            "weak input expected"
        );
        // ...the boosted output is.
        let automata = CompletenessBooster::fleet(n, 4);
        let result = run(&pattern, &history, automata, &SimConfig::new(seed, rounds));
        let emulated = result.emulated.expect("boosted output");
        let end = result.trace.end_time;
        let params = CheckParams::with_margin(end, end.ticks() / 10);
        let report = class_report(&pattern, &emulated, &params);
        assert!(
            report.strong_completeness.is_ok(),
            "seed={seed}: {report:?}"
        );
        assert!(report.strong_accuracy.is_ok(), "seed={seed}: {report:?}");
        assert!(report.is_in(ClassId::Perfect), "seed={seed}");
    }
}
