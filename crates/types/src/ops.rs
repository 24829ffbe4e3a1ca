//! Transaction operations and steps.

use crate::{Duration, ItemId};
use std::fmt;

/// Lock mode of a data access.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared read lock (`Rlock` in the paper).
    Read,
    /// Exclusive write lock (`Wlock` in the paper).
    Write,
}

impl LockMode {
    /// The opposite mode (upgrades hold both).
    #[inline]
    pub fn other(self) -> LockMode {
        match self {
            LockMode::Read => LockMode::Write,
            LockMode::Write => LockMode::Read,
        }
    }
}

impl fmt::Debug for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Read => write!(f, "R"),
            LockMode::Write => write!(f, "W"),
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Read => write!(f, "read"),
            LockMode::Write => write!(f, "write"),
        }
    }
}

/// One logical operation of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Read data item — acquires a read lock at step start.
    Read(ItemId),
    /// Write data item — acquires a write lock at step start. Under the
    /// update-in-workspace model the new value stays in the private
    /// workspace until commit.
    Write(ItemId),
    /// Pure computation: consumes CPU, touches no data.
    Compute,
}

impl Operation {
    /// The item accessed, if any.
    #[inline]
    pub fn item(self) -> Option<ItemId> {
        match self {
            Operation::Read(x) | Operation::Write(x) => Some(x),
            Operation::Compute => None,
        }
    }

    /// `(item, mode)` for data operations.
    #[inline]
    pub fn access(self) -> Option<(ItemId, LockMode)> {
        match self {
            Operation::Read(x) => Some((x, LockMode::Read)),
            Operation::Write(x) => Some((x, LockMode::Write)),
            Operation::Compute => None,
        }
    }
}

impl fmt::Debug for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Read(x) => write!(f, "Read({x})"),
            Operation::Write(x) => write!(f, "Write({x})"),
            Operation::Compute => write!(f, "Compute"),
        }
    }
}

/// One step of a transaction template: an operation plus the CPU time it
/// consumes.
///
/// The lock (if any) is requested at the instant the step becomes current;
/// once granted, the step consumes `duration` ticks of CPU, during which the
/// transaction may be preempted (but keeps its locks — all locks are held
/// until commit).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    /// What the step does.
    pub op: Operation,
    /// CPU time the step consumes once its lock (if any) is granted.
    pub duration: Duration,
}

impl Step {
    /// A read step of `duration` ticks.
    #[inline]
    pub fn read(item: ItemId, duration: u64) -> Step {
        Step {
            op: Operation::Read(item),
            duration: Duration(duration),
        }
    }

    /// A write step of `duration` ticks.
    #[inline]
    pub fn write(item: ItemId, duration: u64) -> Step {
        Step {
            op: Operation::Write(item),
            duration: Duration(duration),
        }
    }

    /// A pure-compute step of `duration` ticks.
    #[inline]
    pub fn compute(duration: u64) -> Step {
        Step {
            op: Operation::Compute,
            duration: Duration(duration),
        }
    }
}

impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:?}", self.op, self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_accessors() {
        let x = ItemId(0);
        assert_eq!(Operation::Read(x).access(), Some((x, LockMode::Read)));
        assert_eq!(Operation::Write(x).access(), Some((x, LockMode::Write)));
        assert_eq!(Operation::Compute.access(), None);
        assert_eq!(Operation::Compute.item(), None);
    }

    #[test]
    fn step_constructors() {
        let s = Step::read(ItemId(1), 3);
        assert_eq!(s.op, Operation::Read(ItemId(1)));
        assert_eq!(s.duration, Duration(3));
        assert_eq!(Step::compute(2).op, Operation::Compute);
    }
}
