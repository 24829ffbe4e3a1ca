//! Periodic transaction templates.

use crate::{Duration, ItemId, LockMode, Operation, Step, Tick, TxnId};
use std::collections::BTreeSet;

/// A periodic transaction template.
///
/// A template describes one real-time transaction type: its period (which
/// under rate-monotonic assignment also determines its priority and, as in
/// the paper, its relative deadline), its release offset, and the ordered
/// sequence of read/write/compute [`Step`]s each instance executes.
#[derive(Clone, PartialEq, Eq)]
pub struct TransactionTemplate {
    /// Template identifier (index into the owning [`crate::TransactionSet`]).
    pub id: TxnId,
    /// Human-readable name used in traces, e.g. `"T1"` or `"nav-update"`.
    pub name: String,
    /// Period; the deadline of each instance is the end of its period.
    pub period: Duration,
    /// Release time of the first instance.
    pub offset: Tick,
    /// The ordered steps every instance executes.
    pub steps: Vec<Step>,
    /// Number of instances to release; `None` = unbounded (until the
    /// simulation horizon).
    pub instances: Option<u32>,
}

impl TransactionTemplate {
    /// Create a template. `id` is assigned by the set builder.
    pub fn new(name: impl Into<String>, period: u64, steps: Vec<Step>) -> Self {
        Self {
            id: TxnId(u32::MAX),
            name: name.into(),
            period: Duration(period),
            offset: Tick::ZERO,
            steps,
            instances: None,
        }
    }

    /// Set the release time of the first instance.
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = Tick(offset);
        self
    }

    /// Limit the number of released instances.
    pub fn with_instances(mut self, n: u32) -> Self {
        self.instances = Some(n);
        self
    }

    /// Worst-case execution time: the sum of all step durations
    /// (`C_i` in the paper's schedulability analysis).
    pub fn wcet(&self) -> Duration {
        self.steps.iter().map(|s| s.duration).sum()
    }

    /// CPU utilisation of this template, `C_i / Pd_i`.
    pub fn utilization(&self) -> f64 {
        self.wcet().raw() as f64 / self.period.raw() as f64
    }

    /// The set of items this template may read (`DataRead` upper bound).
    pub fn read_set(&self) -> BTreeSet<ItemId> {
        self.steps
            .iter()
            .filter_map(|s| match s.op {
                Operation::Read(x) => Some(x),
                _ => None,
            })
            .collect()
    }

    /// The set of items this template may write (`WriteSet(T_i)`; known a
    /// priori, as the paper's protocols require).
    pub fn write_set(&self) -> BTreeSet<ItemId> {
        self.steps
            .iter()
            .filter_map(|s| match s.op {
                Operation::Write(x) => Some(x),
                _ => None,
            })
            .collect()
    }

    /// All items this template accesses in either mode.
    pub fn access_set(&self) -> BTreeSet<ItemId> {
        self.steps.iter().filter_map(|s| s.op.item()).collect()
    }

    /// True if no step of this template writes: every instance is a pure
    /// reader. Read-only templates are the candidates for the snapshot
    /// read path (`rtdb_core::ProtocolKind::snapshot_exempt`) — they
    /// stage nothing, install nothing, and can serialize at a commit
    /// epoch.
    pub fn is_read_only(&self) -> bool {
        !self
            .steps
            .iter()
            .any(|s| matches!(s.op, Operation::Write(_)))
    }

    /// True if the template may access `item` in `mode`.
    pub fn may_access(&self, item: ItemId, mode: LockMode) -> bool {
        self.steps.iter().any(|s| match (s.op, mode) {
            (Operation::Read(x), LockMode::Read) => x == item,
            (Operation::Write(x), LockMode::Write) => x == item,
            _ => false,
        })
    }

    /// Release time of instance `seq`.
    pub fn release_of(&self, seq: u32) -> Tick {
        self.offset + Duration(self.period.raw() * seq as u64)
    }

    /// Absolute deadline of instance `seq` (end of its period).
    pub fn deadline_of(&self, seq: u32) -> Tick {
        self.release_of(seq) + self.period
    }

    /// Sanity-check the template: non-empty steps, non-zero period, WCET
    /// fits within the period.
    pub fn validate(&self) -> crate::Result<()> {
        if self.steps.is_empty() {
            return Err(crate::Error::InvalidTemplate {
                name: self.name.clone(),
                reason: "template has no steps".into(),
            });
        }
        if self.period.is_zero() {
            return Err(crate::Error::InvalidTemplate {
                name: self.name.clone(),
                reason: "period must be positive".into(),
            });
        }
        if self.steps.iter().any(|s| s.duration.is_zero()) {
            return Err(crate::Error::InvalidTemplate {
                name: self.name.clone(),
                reason: "every step must consume at least one tick".into(),
            });
        }
        if self.wcet() > self.period {
            return Err(crate::Error::InvalidTemplate {
                name: self.name.clone(),
                reason: format!("WCET {} exceeds period {}", self.wcet(), self.period),
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for TransactionTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionTemplate")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("period", &self.period)
            .field("offset", &self.offset)
            .field("steps", &self.steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TransactionTemplate {
        TransactionTemplate::new(
            "T",
            10,
            vec![
                Step::read(ItemId(0), 1),
                Step::write(ItemId(1), 2),
                Step::compute(1),
            ],
        )
        .with_offset(3)
    }

    #[test]
    fn wcet_and_utilization() {
        let t = t();
        assert_eq!(t.wcet(), Duration(4));
        assert!((t.utilization() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn read_write_sets() {
        let t = t();
        assert!(t.read_set().contains(&ItemId(0)));
        assert!(!t.read_set().contains(&ItemId(1)));
        assert!(t.write_set().contains(&ItemId(1)));
        assert_eq!(t.access_set().len(), 2);
        assert!(t.may_access(ItemId(0), LockMode::Read));
        assert!(!t.may_access(ItemId(0), LockMode::Write));
    }

    #[test]
    fn read_only_detection() {
        assert!(!t().is_read_only());
        let ro =
            TransactionTemplate::new("R", 10, vec![Step::read(ItemId(0), 1), Step::compute(2)]);
        assert!(ro.is_read_only());
        let compute_only = TransactionTemplate::new("C", 10, vec![Step::compute(1)]);
        assert!(compute_only.is_read_only());
    }

    #[test]
    fn release_and_deadline() {
        let t = t();
        assert_eq!(t.release_of(0), Tick(3));
        assert_eq!(t.release_of(2), Tick(23));
        assert_eq!(t.deadline_of(0), Tick(13));
    }

    #[test]
    fn validation_rejects_bad_templates() {
        let empty = TransactionTemplate::new("e", 5, vec![]);
        assert!(empty.validate().is_err());

        let over = TransactionTemplate::new("o", 2, vec![Step::compute(3)]);
        assert!(over.validate().is_err());

        let zero_step = TransactionTemplate::new("z", 5, vec![Step::compute(0)]);
        assert!(zero_step.validate().is_err());

        assert!(t().validate().is_ok());
    }
}
