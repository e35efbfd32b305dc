//! The Scribe oracle `C` (§3.2.1): realistic, in `P`.

use super::Oracle;
use crate::pattern::FailurePattern;
use crate::process::{ProcessId, ProcessSet};
use crate::time::Time;
use crate::History;

/// The range value of the Scribe: the failure pattern *up to now*, `F[t]`.
///
/// The Scribe "sees what happens at all processes at real time and takes
/// notes of what it sees": at time `t` it outputs the list of values of
/// `F` up to `t`. Because `F` is monotone, that list is fully described by
/// the crash times that are already visible.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternPrefix {
    visible_crashes: Vec<Option<Time>>,
}

impl PatternPrefix {
    /// The prefix of `pattern` visible at time `t` (crash times ≤ `t`).
    #[must_use]
    pub fn at(pattern: &FailurePattern, t: Time) -> Self {
        Self {
            visible_crashes: pattern
                .iter()
                .map(|(_, ct)| ct.filter(|c| *c <= t))
                .collect(),
        }
    }

    /// The crash time of `pid` recorded in this prefix, if visible.
    #[must_use]
    pub fn crash_time(&self, pid: ProcessId) -> Option<Time> {
        self.visible_crashes.get(pid.index()).copied().flatten()
    }

    /// The set of processes recorded as crashed.
    #[must_use]
    pub fn crashed(&self) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (ix, ct) in self.visible_crashes.iter().enumerate() {
            if ct.is_some() {
                s.insert(ProcessId::new(ix));
            }
        }
        s
    }
}

/// The Scribe failure detector `C` of §3.2.1.
///
/// `C(F)` is a singleton: the history where every module outputs `F[t]`
/// at every time `t`. The Scribe is obviously realistic — its notes at
/// time `t` are a function of `F` up to `t` — and it belongs to `P`
/// (project its output with [`scribe_suspects`] to get a Perfect
/// suspect-set history with zero detection latency).
#[derive(Clone, Debug, Default)]
pub struct ScribeOracle;

impl ScribeOracle {
    /// Creates the Scribe.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Oracle for ScribeOracle {
    type Value = PatternPrefix;

    fn name(&self) -> &'static str {
        "scribe"
    }

    fn generate(
        &self,
        pattern: &FailurePattern,
        horizon: Time,
        _seed: u64,
    ) -> History<PatternPrefix> {
        let n = pattern.num_processes();
        let mut history = History::new(n, PatternPrefix::at(pattern, Time::ZERO));
        let mut crash_times: Vec<Time> = pattern
            .iter()
            .filter_map(|(_, ct)| ct)
            .filter(|c| *c <= horizon && *c > Time::ZERO)
            .collect();
        crash_times.sort_unstable();
        crash_times.dedup();
        for t in crash_times {
            let prefix = PatternPrefix::at(pattern, t);
            for ix in 0..n {
                history.set_from(ProcessId::new(ix), t, prefix.clone());
            }
        }
        history
    }
}

/// Projects a Scribe history onto the suspect-set range: at every time,
/// suspect exactly the processes the notes record as crashed. The result
/// is a Perfect history (instant, exact detection).
#[must_use]
pub fn scribe_suspects(history: &History<PatternPrefix>) -> History<ProcessSet> {
    let n = history.num_processes();
    let mut out = History::new(n, history.value(ProcessId::new(0), Time::ZERO).crashed());
    for ix in 0..n {
        let pid = ProcessId::new(ix);
        for (t, prefix) in history.changes(pid) {
            out.set_from(pid, t, prefix.crashed());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{class_report, ClassId};
    use crate::properties::CheckParams;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn scribe_records_crashes_at_their_exact_time() {
        let f = FailurePattern::new(3)
            .with_crash(p(0), Time::new(10))
            .with_crash(p(2), Time::new(30));
        let h = ScribeOracle::new().generate(&f, Time::new(100), 0);
        let before = h.value(p(1), Time::new(9));
        assert!(before.crashed().is_empty());
        let mid = h.value(p(1), Time::new(10));
        assert_eq!(mid.crashed(), ProcessSet::singleton(p(0)));
        assert_eq!(mid.crash_time(p(0)), Some(Time::new(10)));
        assert_eq!(mid.crash_time(p(2)), None);
        let late = h.value(p(1), Time::new(30));
        assert_eq!(late.crashed().len(), 2);
    }

    #[test]
    fn scribe_projection_is_perfect() {
        let f = FailurePattern::new(4)
            .with_crash(p(1), Time::new(20))
            .with_crash(p(3), Time::new(60));
        let h = ScribeOracle::new().generate(&f, Time::new(200), 0);
        let suspects = scribe_suspects(&h);
        let report = class_report(&f, &suspects, &CheckParams::new(Time::new(200)));
        assert!(report.is_in(ClassId::Perfect));
    }

    #[test]
    fn scribe_is_singleton_per_pattern() {
        let f = FailurePattern::new(3).with_crash(p(0), Time::new(5));
        let o = ScribeOracle::new();
        assert_eq!(
            o.generate(&f, Time::new(50), 1),
            o.generate(&f, Time::new(50), 999)
        );
    }
}
