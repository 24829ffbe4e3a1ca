//! A minimal, self-contained [`EngineView`] for protocol unit tests.
//!
//! The real engine lives in `rtdb-sim`; this view lets the locking
//! conditions be exercised in isolation: tests grant locks and record reads
//! by hand and ask the protocol to decide requests. Base and running
//! priorities coincide here (no scheduling, hence no inheritance).

use crate::deps::RetiredChains;
use crate::{CeilingTable, EngineView, LockTable};
use rtdb_types::{InstanceId, ItemId, LockMode, Priority, TransactionSet, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A static protocol-testing view over a [`TransactionSet`].
pub struct StaticView<'a> {
    set: &'a TransactionSet,
    ceilings: CeilingTable,
    locks: LockTable,
    /// Per-instance `DataRead`, each sorted ascending.
    data_read: BTreeMap<InstanceId, Vec<ItemId>>,
    staged: BTreeMap<InstanceId, Vec<ItemId>>,
    pending: BTreeMap<InstanceId, crate::LockRequest>,
    /// Retired chains (for early-release protocol tests; empty unless a
    /// test retires something).
    retired: RetiredChains,
    /// Sorted list of instances that hold locks or have read something —
    /// recomputed on mutation (this is a test fixture; simplicity wins).
    active: Vec<InstanceId>,
}

impl<'a> StaticView<'a> {
    /// View over `set` with no locks held. The lock table carries the
    /// incremental [`crate::CeilingIndex`] for every flavor, so every
    /// protocol unit test exercises it (and its debug-build equivalence
    /// oracle) for free.
    pub fn new(set: &'a TransactionSet) -> Self {
        let ceilings = CeilingTable::new(set);
        let locks = LockTable::with_index(&ceilings);
        StaticView {
            set,
            ceilings,
            locks,
            data_read: BTreeMap::new(),
            staged: BTreeMap::new(),
            pending: BTreeMap::new(),
            retired: RetiredChains::default(),
            active: Vec::new(),
        }
    }

    fn refresh_active(&mut self) {
        let mut out: BTreeSet<InstanceId> = self.locks.holders().collect();
        out.extend(self.data_read.keys().copied());
        self.active = out.into_iter().collect();
    }

    /// Record that `who` has staged a write of `item` (for optimistic
    /// validation tests).
    pub fn record_staged_write(&mut self, who: InstanceId, item: ItemId) {
        let staged = self.staged.entry(who).or_default();
        if let Err(i) = staged.binary_search(&item) {
            staged.insert(i, item);
        }
    }

    /// Record that `who` is blocked waiting on `req` (maintains the
    /// pending-request view the commit-order guard consults).
    pub fn set_pending(&mut self, who: InstanceId, req: crate::LockRequest) {
        self.pending.insert(who, req);
    }

    /// Record a granted lock.
    pub fn grant(&mut self, who: InstanceId, item: ItemId, mode: LockMode) {
        self.locks.grant(who, item, mode);
        self.refresh_active();
    }

    /// Release every lock of `who`.
    pub fn release_all(&mut self, who: InstanceId) {
        self.locks.release_all(who);
        self.data_read.remove(&who);
        self.refresh_active();
    }

    /// Record that `who` has read `item` (maintains `DataRead`).
    pub fn record_read(&mut self, who: InstanceId, item: ItemId) {
        let reads = self.data_read.entry(who).or_default();
        if let Err(i) = reads.binary_search(&item) {
            reads.insert(i, item);
        }
        self.refresh_active();
    }

    /// Record that `owner` retired its write of `item` with `value` (for
    /// early-release tests): the entry joins the end of the item's chain.
    pub fn retire(&mut self, owner: InstanceId, item: ItemId, value: Value) {
        self.retired.retire(owner, item, value);
    }
}

impl EngineView for StaticView<'_> {
    fn set(&self) -> &TransactionSet {
        self.set
    }

    fn locks(&self) -> &LockTable {
        &self.locks
    }

    fn ceilings(&self) -> &CeilingTable {
        &self.ceilings
    }

    fn base_priority(&self, who: InstanceId) -> Priority {
        self.set.priority_of(who.txn)
    }

    fn running_priority(&self, who: InstanceId) -> Priority {
        self.set.priority_of(who.txn)
    }

    fn data_read(&self, who: InstanceId) -> &[ItemId] {
        self.data_read.get(&who).map_or(&[], |v| v.as_slice())
    }

    fn pending_request(&self, who: InstanceId) -> Option<crate::LockRequest> {
        self.pending.get(&who).copied()
    }

    fn active_instances(&self) -> &[InstanceId] {
        &self.active
    }

    fn staged_write_items(&self, who: InstanceId) -> &[ItemId] {
        self.staged.get(&who).map_or(&[], |v| v.as_slice())
    }

    fn latest_retiree(&self, item: ItemId) -> Option<InstanceId> {
        self.retired.latest(item).map(|(rw, _)| rw.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{SetBuilder, Step, TransactionTemplate, TxnId};

    #[test]
    fn static_view_reports_priorities_and_reads() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut v = StaticView::new(&set);
        let a = InstanceId::first(TxnId(0));
        assert!(v.base_priority(a) > v.base_priority(InstanceId::first(TxnId(1))));
        assert!(v.data_read(a).is_empty());
        v.record_read(a, ItemId(0));
        assert!(v.data_read(a).contains(&ItemId(0)));
        assert_eq!(v.active_instances(), &[a]);
        v.grant(a, ItemId(0), LockMode::Read);
        assert!(v.locks().holds(a, ItemId(0), LockMode::Read));
        v.release_all(a);
        assert!(!v.locks().holds(a, ItemId(0), LockMode::Read));
        assert!(v.active_instances().is_empty());
    }
}
