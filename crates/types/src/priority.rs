//! Priorities and priority ceilings.
//!
//! The paper lists transactions `T_1 .. T_n` in *descending* order of
//! priority, `T_1` highest. Internally we represent a priority as a `u32`
//! where a **larger value means a higher priority**, which keeps comparisons
//! (`P_i > Sysceil`) in their natural direction.
//!
//! A [`Ceiling`] is either a priority or the *dummy* ceiling, "lower than
//! the priorities of all transactions in the system" (paper §3, Example 1).
//! The dummy is the value of `Sysceil` when no relevant item is locked.

use std::fmt;

/// A transaction priority. Larger numeric value = higher priority.
///
/// Priorities in a [`crate::TransactionSet`] form a total order: no two
/// templates share a priority (the paper assumes a total order; rate
/// monotonic ties are broken by template index). The default is
/// [`Priority::MIN`].
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u32);

impl Priority {
    /// The lowest real priority.
    pub const MIN: Priority = Priority(0);

    /// The highest representable priority (reserved for internal use, e.g.
    /// saturation during priority inheritance proofs).
    pub const MAX: Priority = Priority(u32::MAX);

    /// Raw numeric level.
    #[inline]
    pub fn level(self) -> u32 {
        self.0
    }

    /// The ceiling equal to this priority.
    #[inline]
    pub fn as_ceiling(self) -> Ceiling {
        Ceiling::At(self)
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P({})", self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Delegate so width/alignment format flags are honoured.
        fmt::Display::fmt(&self.0, f)
    }
}

/// A priority ceiling: either a concrete priority level or the *dummy*
/// ceiling that compares below every priority.
///
/// `Ceiling` implements a total order with `Dummy < At(p)` for every `p`,
/// so the paper's locking conditions read naturally:
///
/// ```
/// use rtdb_types::{Ceiling, Priority};
/// let sysceil = Ceiling::Dummy;
/// let p = Priority(3);
/// assert!(p.as_ceiling() > sysceil); // "P_i > Sysceil"
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ceiling {
    /// No ceiling in effect — lower than all transaction priorities.
    #[default]
    Dummy,
    /// Ceiling at the given priority level.
    At(Priority),
}

impl Ceiling {
    /// True if this is the dummy ceiling.
    #[inline]
    pub fn is_dummy(self) -> bool {
        matches!(self, Ceiling::Dummy)
    }

    /// The priority level, if any.
    #[inline]
    pub fn priority(self) -> Option<Priority> {
        match self {
            Ceiling::Dummy => None,
            Ceiling::At(p) => Some(p),
        }
    }

    /// Pointwise maximum of two ceilings.
    #[inline]
    pub fn max(self, other: Ceiling) -> Ceiling {
        std::cmp::max(self, other)
    }

    /// True if a transaction at priority `p` clears this ceiling, i.e.
    /// `p > ceiling` in the paper's sense (a dummy ceiling is cleared by
    /// every priority).
    #[inline]
    pub fn cleared_by(self, p: Priority) -> bool {
        match self {
            Ceiling::Dummy => true,
            Ceiling::At(c) => p > c,
        }
    }
}

impl PartialOrd for Ceiling {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ceiling {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use Ceiling::*;
        match (self, other) {
            (Dummy, Dummy) => std::cmp::Ordering::Equal,
            (Dummy, At(_)) => std::cmp::Ordering::Less,
            (At(_), Dummy) => std::cmp::Ordering::Greater,
            (At(a), At(b)) => a.cmp(b),
        }
    }
}

impl From<Priority> for Ceiling {
    #[inline]
    fn from(p: Priority) -> Self {
        Ceiling::At(p)
    }
}

impl fmt::Debug for Ceiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ceiling::Dummy => write!(f, "dummy"),
            Ceiling::At(p) => write!(f, "ceil({})", p.0),
        }
    }
}

impl fmt::Display for Ceiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ceiling::Dummy => f.pad("dummy"),
            Ceiling::At(p) => fmt::Display::fmt(&p.0, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_is_below_everything() {
        assert!(Ceiling::Dummy < Ceiling::At(Priority::MIN));
        assert!(Ceiling::Dummy < Ceiling::At(Priority(7)));
        assert!(Ceiling::Dummy.cleared_by(Priority::MIN));
    }

    #[test]
    fn ceiling_order_follows_priority_order() {
        assert!(Ceiling::At(Priority(2)) < Ceiling::At(Priority(3)));
        assert_eq!(
            Ceiling::At(Priority(2)).max(Ceiling::Dummy),
            Ceiling::At(Priority(2))
        );
    }

    #[test]
    fn cleared_by_is_strict() {
        let c = Ceiling::At(Priority(5));
        assert!(c.cleared_by(Priority(6)));
        assert!(!c.cleared_by(Priority(5))); // equality does NOT clear
        assert!(!c.cleared_by(Priority(4)));
    }

    #[test]
    fn default_is_dummy() {
        assert!(Ceiling::default().is_dummy());
        assert_eq!(Ceiling::Dummy.priority(), None);
        assert_eq!(Ceiling::At(Priority(1)).priority(), Some(Priority(1)));
    }
}
