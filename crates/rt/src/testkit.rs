//! Test fixtures for the runtime: [`TestClock`], the logical clock tests
//! run the front-end ([`crate::front::run_front_on`]) and the TCP edge on.

use crate::clock::Clock;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A logical [`Clock`]: time moves only when busy work runs, by exactly
/// `ticks × tick_ns`, so on one worker a job's stamps are the simulator's
/// ticks scaled by `tick_ns`. While the clock is [paused](TestClock::pause)
/// every busy step parks until the pause ends: the test decides when a
/// busy step may finish. Clones share one clock.
#[derive(Clone, Default)]
pub struct TestClock(Arc<(Mutex<Logical>, Condvar)>);

#[derive(Default)]
struct Logical {
    now_ns: u64,
    paused: bool,
    /// Busy steps waiting for the pause to end.
    held: usize,
}

/// A pause of a [`TestClock`]; busy work resumes when it drops, on an
/// unwind too, so a failing test's run still returns.
#[must_use = "the clock resumes when the pause drops"]
pub struct Paused<'c>(&'c TestClock);

impl TestClock {
    fn logical(&self) -> MutexGuard<'_, Logical> {
        self.0 .0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hold every busy step until the returned guard drops.
    pub fn pause(&self) -> Paused<'_> {
        self.logical().paused = true;
        Paused(self)
    }

    /// How many busy steps the pause holds right now (0 while the clock
    /// runs): each is a thread inside its job's busy work.
    pub fn held(&self) -> usize {
        self.logical().held
    }
}

impl Drop for Paused<'_> {
    fn drop(&mut self) {
        self.0.logical().paused = false;
        self.0 .0 .1.notify_all();
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        self.logical().now_ns
    }

    fn work(&self, ticks: u64, tick_ns: u64) {
        let ns = ticks.saturating_mul(tick_ns);
        if ns == 0 {
            return;
        }
        let mut logical = self.logical();
        logical.held += 1;
        let resumed = self.0 .1.wait_while(logical, |l| l.paused);
        let mut logical = resumed.unwrap_or_else(PoisonError::into_inner);
        logical.held -= 1;
        logical.now_ns = logical.now_ns.saturating_add(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn a_paused_clock_holds_busy_work_until_it_resumes() {
        let clock = TestClock::default();
        let paused = clock.pause();
        let (done, finished) = channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                clock.work(3, 7);
                done.send(clock.now_ns()).expect("receiver");
            });
            let early = finished.recv_timeout(Duration::from_millis(50));
            assert!(early.is_err(), "busy work finished on a paused clock");
            assert_eq!(clock.now_ns(), 0);
            drop(paused);
            assert_eq!(finished.recv().expect("resumed"), 21);
            assert_eq!(clock.held(), 0);
        });
    }

    #[test]
    fn time_advances_by_exactly_the_work_and_never_decreases() {
        let clock = TestClock::default();
        let mut last = 0;
        for (ticks, tick_ns) in [(0, 5), (4, 0), (1, 1), (10, 2_000_000), (3, 7)] {
            clock.work(ticks, tick_ns);
            assert_eq!(clock.now_ns() - last, ticks * tick_ns);
            last = clock.now_ns();
        }
        // Two workers and a reader: every reading is at least the last,
        // and the end is the sum of all the work.
        let end = last + 2 * 1_000 * 3;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| (0..1_000).for_each(|_| clock.work(1, 3)));
            }
            while last < end {
                let now = clock.now_ns();
                assert!(now >= last, "{now} < {last}");
                last = now;
            }
        });
        assert_eq!(clock.now_ns(), end);
    }
}
