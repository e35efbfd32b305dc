//! Clocks: virtual (deterministic) and system time sources.
//!
//! The runtime layer measures real durations, unlike the formal model's
//! inaccessible global clock. [`Nanos`] is the time unit; [`Clock`]
//! abstracts the source so the whole heartbeat stack runs identically
//! under the deterministic [`VirtualClock`] (tests, QoS experiments) and
//! the wall [`SystemClock`] (the UDP examples).

use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A point in time, in nanoseconds since an arbitrary origin.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The origin.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a time point from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a time point from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds.
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float (for rate metrics).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Saturating difference `self − earlier`.
    #[must_use]
    pub const fn saturating_sub(self, earlier: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A time source.
pub trait Clock {
    /// The current time.
    fn now(&self) -> Nanos;
}

/// A [`Clock`] an online driver can *pace*: advanced (or waited on) up to
/// the next sample tick.
///
/// This is what lets one scenario driver serve both execution styles:
/// under a [`VirtualClock`] the tick is instantaneous and deterministic
/// (the simulation path), under a [`SystemClock`] the driver genuinely
/// sleeps until the wall clock reaches the tick (the live UDP path).
pub trait Pacer: Clock {
    /// Blocks or jumps until `now() >= t`. A no-op if `t` has already
    /// passed.
    fn pace_to(&self, t: Nanos);
}

impl Pacer for VirtualClock {
    fn pace_to(&self, t: Nanos) {
        self.now.fetch_max(t.as_nanos(), Ordering::SeqCst);
    }
}

impl Pacer for SystemClock {
    fn pace_to(&self, t: Nanos) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            std::thread::sleep(std::time::Duration::from_nanos(
                t.saturating_sub(now).as_nanos(),
            ));
        }
    }
}

/// A deterministic, manually advanced clock shared by cloning.
///
/// # Examples
///
/// ```
/// use rfd_net::clock::{Clock, Nanos, VirtualClock};
///
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now(), Nanos::ZERO);
/// clock.advance(Nanos::from_millis(5));
/// assert_eq!(clock.now().as_millis(), 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    /// Nanoseconds since the origin; it only ever moves forwards.
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at the origin.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `delta`.
    pub fn advance(&self, delta: Nanos) {
        let _ = self
            .now
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |now| {
                Some(now.saturating_add(delta.as_nanos()))
            });
    }

    /// Jumps the clock to `t` (must not move backwards).
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the current time.
    pub fn set(&self, t: Nanos) {
        let was = self.now.fetch_max(t.as_nanos(), Ordering::SeqCst);
        assert!(t.as_nanos() >= was, "virtual clocks do not run backwards");
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Nanos {
        Nanos(self.now.load(Ordering::SeqCst))
    }
}

/// A fixed rational clock rate: `num/den` local nanoseconds elapse per
/// nanosecond of the wrapped clock. The unit of per-node clock skew in
/// the weather DSL ([`crate::weather`]) — pure integer arithmetic, so a
/// skewed clock is exactly as deterministic as the clock it wraps.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ClockSkew {
    num: u32,
    den: u32,
}

impl ClockSkew {
    /// No skew: local time equals wrapped time, bit for bit.
    pub const IDENTITY: ClockSkew = ClockSkew { num: 1, den: 1 };

    /// A rate of `num/den` (e.g. `ratio(11, 10)` runs 10% fast,
    /// `ratio(9, 10)` runs 10% slow).
    ///
    /// # Panics
    ///
    /// Panics if either term is zero.
    #[must_use]
    pub fn ratio(num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "clock rates must be positive");
        Self { num, den }
    }

    /// A drift expressed in parts per million: `ppm(500)` gains 500 µs
    /// per second, `ppm(-500)` loses it.
    ///
    /// # Panics
    ///
    /// Panics if `drift <= -1_000_000` (the clock would stop or run
    /// backwards).
    #[must_use]
    pub fn ppm(drift: i64) -> Self {
        let num = 1_000_000_i64 + drift;
        assert!(num > 0, "a clock must keep moving forward");
        Self {
            num: u32::try_from(num).expect("drift within u32 range"),
            den: 1_000_000,
        }
    }

    /// Whether this is the identity rate.
    #[must_use]
    pub fn is_identity(self) -> bool {
        self.num == self.den
    }

    /// Maps wrapped time to local time: `t · num / den`.
    #[must_use]
    pub fn apply(self, t: Nanos) -> Nanos {
        let scaled = u128::from(t.as_nanos()) * u128::from(self.num) / u128::from(self.den);
        Nanos::from_nanos(u64::try_from(scaled).unwrap_or(u64::MAX))
    }

    /// Maps local time back to wrapped time, rounding **up** so that
    /// `apply(unapply(t)) >= t` — pacing to the unapplied target always
    /// reaches the local one.
    #[must_use]
    pub fn unapply(self, t: Nanos) -> Nanos {
        let num = u128::from(self.num);
        let scaled = (u128::from(t.as_nanos()) * u128::from(self.den)).div_ceil(num);
        Nanos::from_nanos(u64::try_from(scaled).unwrap_or(u64::MAX))
    }
}

impl Default for ClockSkew {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// A [`Clock`] running at a fixed rational rate of another clock — the
/// per-node clock-skew plane of the weather DSL. With
/// [`ClockSkew::IDENTITY`] the wrapper is exact passthrough (integer
/// arithmetic, no rounding), so an unskewed fleet built through it is
/// bit-identical to one built on the bare clock.
///
/// # Examples
///
/// ```
/// use rfd_net::clock::{Clock, ClockSkew, Nanos, SkewedClock, VirtualClock};
///
/// let real = VirtualClock::new();
/// let fast = SkewedClock::new(real.clone(), ClockSkew::ratio(3, 2));
/// real.advance(Nanos::from_millis(100));
/// assert_eq!(fast.now().as_millis(), 150, "runs 1.5x fast");
/// ```
#[derive(Clone, Debug)]
pub struct SkewedClock<C> {
    inner: C,
    skew: ClockSkew,
}

impl<C> SkewedClock<C> {
    /// Wraps `inner` at rate `skew`.
    #[must_use]
    pub fn new(inner: C, skew: ClockSkew) -> Self {
        Self { inner, skew }
    }

    /// The rate this clock runs at.
    #[must_use]
    pub fn skew(&self) -> ClockSkew {
        self.skew
    }

    /// The wrapped clock.
    #[must_use]
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Clock> Clock for SkewedClock<C> {
    fn now(&self) -> Nanos {
        self.skew.apply(self.inner.now())
    }
}

impl<C: Pacer> Pacer for SkewedClock<C> {
    fn pace_to(&self, t: Nanos) {
        self.inner.pace_to(self.skew.unapply(t));
    }
}

/// The wall clock, anchored at its creation instant.
#[derive(Clone, Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// Creates a wall clock with `now() == 0` at creation.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_deterministically() {
        let c = VirtualClock::new();
        let c2 = c.clone();
        c.advance(Nanos::from_millis(3));
        assert_eq!(c2.now().as_millis(), 3, "clones share the time source");
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn virtual_clock_rejects_time_travel() {
        let c = VirtualClock::new();
        c.advance(Nanos::from_millis(10));
        c.set(Nanos::from_millis(5));
    }

    #[test]
    fn system_clock_moves_forward() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn pacing_a_virtual_clock_jumps_and_never_rewinds() {
        let c = VirtualClock::new();
        c.pace_to(Nanos::from_millis(10));
        assert_eq!(c.now().as_millis(), 10);
        c.pace_to(Nanos::from_millis(5)); // already passed: no-op
        assert_eq!(c.now().as_millis(), 10);
    }

    #[test]
    fn pacing_a_system_clock_waits_out_the_gap() {
        let c = SystemClock::new();
        let target = c.now().saturating_add(Nanos::from_millis(5));
        c.pace_to(target);
        assert!(c.now() >= target);
    }

    #[test]
    fn skewed_clock_scales_and_identity_is_exact_passthrough() {
        let real = VirtualClock::new();
        let fast = SkewedClock::new(real.clone(), ClockSkew::ratio(3, 2));
        let slow = SkewedClock::new(real.clone(), ClockSkew::ratio(1, 2));
        let same = SkewedClock::new(real.clone(), ClockSkew::IDENTITY);
        real.advance(Nanos::from_nanos(1_000_001));
        assert_eq!(fast.now().as_nanos(), 1_500_001);
        assert_eq!(slow.now().as_nanos(), 500_000);
        assert_eq!(same.now().as_nanos(), 1_000_001, "identity is exact");
        assert!(ClockSkew::IDENTITY.is_identity());
        assert!(!ClockSkew::ratio(3, 2).is_identity());
    }

    #[test]
    fn skewed_pacer_reaches_its_local_target() {
        let real = VirtualClock::new();
        for skew in [
            ClockSkew::ratio(3, 2),
            ClockSkew::ratio(2, 3),
            ClockSkew::ratio(7, 13),
            ClockSkew::ppm(500),
            ClockSkew::ppm(-500),
        ] {
            let local = SkewedClock::new(real.clone(), skew);
            let target = local.now().saturating_add(Nanos::from_nanos(1_234_567));
            local.pace_to(target);
            assert!(
                local.now() >= target,
                "{skew:?}: {:?} < {target:?}",
                local.now()
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_clocks_are_rejected() {
        let _ = ClockSkew::ratio(0, 2);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_millis(2);
        let b = Nanos::from_millis(5);
        assert_eq!(b.saturating_sub(a).as_millis(), 3);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(a.saturating_add(b).as_millis(), 7);
        assert!(format!("{b}").contains("ms"));
    }
}
