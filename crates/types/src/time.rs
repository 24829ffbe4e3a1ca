//! Discrete simulation time.
//!
//! The simulator uses integer ticks so every run is exactly reproducible and
//! the worked examples of the paper (Figures 1–5) can be asserted
//! tick-for-tick. A [`Tick`] is a point in time; a [`Duration`] is a span.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in discrete simulation time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

/// A span of discrete simulation time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Tick {
    /// Time zero — the start of every simulation.
    pub const ZERO: Tick = Tick(0);

    /// The largest representable tick; used as "never" in event scheduling.
    pub const MAX: Tick = Tick(u64::MAX);

    /// Span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier > self` (time in this workspace never flows
    /// backwards; a violation is a simulator bug).
    #[inline]
    pub fn since(self, earlier: Tick) -> Duration {
        assert!(
            earlier <= self,
            "time went backwards: {earlier:?} > {self:?}"
        );
        Duration(self.0 - earlier.0)
    }

    /// Saturating difference, zero when `earlier > self`.
    #[cfg(test)]
    fn saturating_since(self, earlier: Tick) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The raw tick count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// True if the span is empty.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The raw length in ticks.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of spans.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition of spans.
    #[inline]
    pub fn checked_add(self, rhs: Duration) -> Option<Duration> {
        self.0.checked_add(rhs.0).map(Duration)
    }
}

impl Add<Duration> for Tick {
    type Output = Tick;
    #[inline]
    fn add(self, rhs: Duration) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Tick {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Tick {
    type Output = Tick;
    #[inline]
    fn sub(self, rhs: Duration) -> Tick {
        Tick(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Debug for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate so width/alignment format flags are honoured.
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate so width/alignment format flags are honoured.
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_arithmetic() {
        let t = Tick(5) + Duration(3);
        assert_eq!(t, Tick(8));
        assert_eq!(t.since(Tick(5)), Duration(3));
        assert_eq!(t - Duration(8), Tick::ZERO);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_reversed_order() {
        let _ = Tick(1).since(Tick(2));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Tick(1).saturating_since(Tick(2)), Duration::ZERO);
        assert_eq!(Tick(9).saturating_since(Tick(2)), Duration(7));
    }

    #[test]
    fn duration_sum() {
        let total: Duration = [Duration(1), Duration(2), Duration(3)].into_iter().sum();
        assert_eq!(total, Duration(6));
    }
}
