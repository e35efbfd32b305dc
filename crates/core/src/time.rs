//! The global discrete clock Φ.
//!
//! The paper assumes a discrete global clock whose ticks range over the
//! natural numbers (§2). The clock is a proof/simulation device only: it is
//! *not* accessible to the processes. [`Time`] is the tick type used by
//! failure patterns, histories, and the simulator.

use core::fmt;

/// A tick of the global discrete clock Φ.
///
/// # Examples
///
/// ```
/// use rfd_core::Time;
///
/// let t = Time::new(10);
/// assert!(Time::ZERO < t);
/// assert_eq!(t.next(), Time::new(11));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(u64);

impl Time {
    /// The first tick.
    pub const ZERO: Time = Time(0);

    /// The maximum representable tick.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a tick from a raw tick count.
    #[must_use]
    pub const fn new(ticks: u64) -> Self {
        Self(ticks)
    }

    /// Raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// The immediately following tick (saturating).
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0.saturating_add(1))
    }

    /// The immediately preceding tick, or `ZERO` at the origin.
    #[must_use]
    pub const fn prev(self) -> Self {
        Self(self.0.saturating_sub(1))
    }

    /// This tick advanced by `delta` ticks (saturating).
    #[must_use]
    pub const fn advance(self, delta: u64) -> Self {
        Self(self.0.saturating_add(delta))
    }

    /// Number of ticks from `earlier` to `self`, or zero if `earlier` is
    /// later.
    #[must_use]
    pub const fn since(self, earlier: Time) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(ticks: u64) -> Self {
        Self(ticks)
    }
}

impl From<Time> for u64 {
    fn from(t: Time) -> Self {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_ticks() {
        assert!(Time::new(3) < Time::new(4));
        assert_eq!(Time::ZERO, Time::new(0));
    }

    #[test]
    fn next_prev_saturate() {
        assert_eq!(Time::ZERO.prev(), Time::ZERO);
        assert_eq!(Time::MAX.next(), Time::MAX);
        assert_eq!(Time::new(5).next(), Time::new(6));
    }

    #[test]
    fn since_is_saturating_difference() {
        assert_eq!(Time::new(10).since(Time::new(4)), 6);
        assert_eq!(Time::new(4).since(Time::new(10)), 0);
    }

    #[test]
    fn advance_adds_ticks() {
        assert_eq!(Time::new(2).advance(5), Time::new(7));
    }
}
