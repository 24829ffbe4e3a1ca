//! The runtime's one clock. Every read of time that decides an outcome —
//! admission, start and commit stamps, slack, busy work — is a [`Clock`]
//! reading: [`WallClock`] in production, and in tests
//! [`crate::testkit::TestClock`], on which busy work takes exactly its length.

use std::time::Instant;

/// What time it is, and how long a busy step takes.
pub trait Clock: Sync {
    /// Nanoseconds since the run started; never decreases.
    fn now_ns(&self) -> u64;

    /// Busy work for `ticks × tick_ns` ns: spin until the clock has moved on
    /// that far (the runtime never sleeps). Zero ns reads no clock.
    fn work(&self, ticks: u64, tick_ns: u64) {
        let ns = ticks.saturating_mul(tick_ns);
        if ns == 0 {
            return;
        }
        let until = self.now_ns().saturating_add(ns);
        while self.now_ns() < until {
            std::hint::spin_loop();
        }
    }
}

/// The production clock: the [`Instant`] the run started at.
pub type WallClock = Instant;

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The wall clock, counting its reads.
    struct Counted(WallClock, AtomicU64);

    impl Clock for Counted {
        fn now_ns(&self) -> u64 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.now_ns()
        }
    }

    #[test]
    fn zero_work_returns_without_reading_the_clock() {
        let clock = Counted(WallClock::now(), AtomicU64::new(0));
        clock.work(0, 1_000_000);
        clock.work(1_000, 0);
        assert_eq!(clock.1.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn work_of_n_ns_returns_after_at_least_n_ns() {
        let clock = WallClock::now();
        for n in [1, 1_000, 200_000] {
            let before = clock.now_ns();
            clock.work(n, 1);
            assert!(clock.now_ns() - before >= n, "{n} ns");
        }
    }
}
