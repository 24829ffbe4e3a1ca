//! Private transaction workspaces (the update-in-workspace model, paper §4).
//!
//! A workspace stages its instance's writes and folds every value read
//! into the digest its write values derive from; nothing more. What an
//! instance read is recorded elsewhere, once: `DataRead(T)` in the state
//! kernel's record, the values and versions in the history's `Read`
//! events.

use crate::db::{Database, Version, VersionedValue};
use rtdb_types::{derive_write, InstanceId, ItemId, Value};

/// A record of one read performed by an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRecord {
    /// Item read.
    pub item: ItemId,
    /// Value observed.
    pub value: Value,
    /// Committed version observed (0 = initial). Reads of the
    /// transaction's *own* staged write record the version it last
    /// observed from the store for that item, with `own = true`.
    pub version: Version,
    /// True if the value came from the instance's own staged write.
    pub own: bool,
}

/// The private workspace of one transaction instance.
///
/// Reads go to the committed store unless the instance has already staged a
/// write to the same item (a transaction sees its own updates). Writes are
/// staged locally and installed into the [`Database`] only at commit —
/// "data items are written into the database only upon successful commit"
/// (paper §4).
///
/// The staged writes are a sorted `Vec` rather than a tree map:
/// transactions touch a handful of items, so binary search over a dense
/// vector beats pointer-chasing, and [`Workspace::reset`] lets the engine
/// recycle the allocation across instances.
#[derive(Clone, Debug)]
pub struct Workspace {
    owner: InstanceId,
    /// Staged writes, sorted by item.
    staged: Vec<(ItemId, Value)>,
    digest: Value,
}

impl Workspace {
    /// Fresh workspace for `owner`.
    pub fn new(owner: InstanceId) -> Self {
        Self {
            owner,
            staged: Vec::new(),
            digest: Value::INITIAL,
        }
    }

    /// Clear all state and re-home the workspace to a new `owner`, keeping
    /// the buffer's capacity so recycled instances allocate nothing.
    pub fn reset(&mut self, owner: InstanceId) {
        self.owner = owner;
        self.staged.clear();
        self.digest = Value::INITIAL;
    }

    /// The owning instance.
    pub fn owner(&self) -> InstanceId {
        self.owner
    }

    /// The staged value for `item`, if this instance has written it.
    #[inline]
    pub fn staged_value(&self, item: ItemId) -> Option<Value> {
        self.staged
            .binary_search_by_key(&item, |&(i, _)| i)
            .ok()
            .map(|idx| self.staged[idx].1)
    }

    /// Fold an observed value into the digest and return its record.
    #[inline]
    fn observe(&mut self, rec: ReadRecord) -> ReadRecord {
        self.digest = self.digest.mix(rec.value);
        rec
    }

    /// Perform a read: own staged write if present, otherwise the latest
    /// committed version. Folds the value into the read digest.
    pub fn read(&mut self, db: &Database, item: ItemId) -> ReadRecord {
        self.read_over(item, db.get(item))
    }

    /// [`Workspace::read`] over another committed store (the serial
    /// replay's): `committed` is `item`'s latest committed version there.
    #[inline(always)]
    pub(crate) fn read_over(&mut self, item: ItemId, committed: &VersionedValue) -> ReadRecord {
        let own = self.staged_value(item);
        self.observe(ReadRecord {
            item,
            value: own.unwrap_or(committed.value),
            version: committed.version,
            own: own.is_some(),
        })
    }

    /// Record a read served from a multiversion snapshot (the lock-exempt
    /// read-only path, see `crate::mvcc`). Snapshot readers never stage
    /// writes, so the observation can never be an own read; it still
    /// enters the digest so derived values stay comparable with the
    /// lock-based read path.
    pub fn read_versioned(&mut self, item: ItemId, value: Value, version: Version) -> ReadRecord {
        debug_assert!(
            self.staged.is_empty(),
            "snapshot readers never stage writes"
        );
        self.observe(ReadRecord {
            item,
            value,
            version,
            own: false,
        })
    }

    /// Record a **dirty** read: `value` is another transaction's
    /// uncommitted (early-released) write, `version` the version it is
    /// predicted to install at. Unlike [`Workspace::read_versioned`] the
    /// reader may stage writes of its own — early-release protocols mix
    /// dirty reads with updates.
    pub fn read_dirty(&mut self, item: ItemId, value: Value, version: Version) -> ReadRecord {
        debug_assert!(
            self.staged_value(item).is_none(),
            "own staged value shadows any dirty read"
        );
        self.observe(ReadRecord {
            item,
            value,
            version,
            own: false,
        })
    }

    /// Stage a write whose value is derived deterministically from the
    /// instance identity, the step index and everything read so far
    /// (see [`rtdb_types::derive_write`]). Returns the staged value.
    pub fn write(&mut self, step_index: usize, item: ItemId) -> Value {
        let value = derive_write(self.owner, step_index, item, self.digest);
        match self.staged.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(idx) => self.staged[idx].1 = value,
            Err(idx) => self.staged.insert(idx, (item, value)),
        }
        value
    }

    /// The staged (uncommitted) writes, sorted by item.
    pub fn staged_writes(&self) -> &[(ItemId, Value)] {
        &self.staged
    }

    /// Current read digest (order-sensitive fold of all values read).
    pub fn digest(&self) -> Value {
        self.digest
    }

    /// Install all staged writes into the committed store. Returns the
    /// `(item, value, new_version)` triples in item order.
    pub fn commit_into(
        &self,
        db: &mut Database,
        at: rtdb_types::Tick,
    ) -> Vec<(ItemId, Value, Version)> {
        self.staged
            .iter()
            .map(|&(item, value)| {
                let version = db.install(self.owner, item, value, at);
                (item, value, version)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{Tick, TxnId};

    fn owner() -> InstanceId {
        InstanceId::first(TxnId(0))
    }

    #[test]
    fn reads_see_committed_values() {
        let mut db = Database::new();
        db.install(InstanceId::first(TxnId(9)), ItemId(0), Value(42), Tick(1));
        let mut ws = Workspace::new(owner());
        let r = ws.read(&db, ItemId(0));
        assert_eq!(r.value, Value(42));
        assert_eq!(r.version, 1);
        assert!(!r.own);
    }

    #[test]
    fn reads_see_own_staged_writes() {
        let db = Database::new();
        let mut ws = Workspace::new(owner());
        let staged = ws.write(0, ItemId(3));
        let r = ws.read(&db, ItemId(3));
        assert_eq!(r.value, staged);
        assert!(r.own);
    }

    #[test]
    fn staged_writes_are_invisible_until_commit() {
        let mut db = Database::new();
        let mut ws = Workspace::new(owner());
        ws.write(0, ItemId(0));
        // Another transaction still sees the initial value.
        assert_eq!(db.read(ItemId(0)).value, Value::INITIAL);

        let installed = ws.commit_into(&mut db, Tick(5));
        assert_eq!(installed.len(), 1);
        assert_eq!(db.read(ItemId(0)).value, installed[0].1);
        assert_eq!(db.read(ItemId(0)).version, 1);
    }

    #[test]
    fn digest_depends_on_read_order() {
        let mut db = Database::new();
        db.install(InstanceId::first(TxnId(9)), ItemId(0), Value(1), Tick(1));
        db.install(InstanceId::first(TxnId(9)), ItemId(1), Value(2), Tick(1));

        let mut a = Workspace::new(owner());
        a.read(&db, ItemId(0));
        a.read(&db, ItemId(1));

        let mut b = Workspace::new(owner());
        b.read(&db, ItemId(1));
        b.read(&db, ItemId(0));

        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn derived_writes_differ_with_different_reads() {
        let mut db = Database::new();
        let mut a = Workspace::new(owner());
        a.write(1, ItemId(5));

        db.install(InstanceId::first(TxnId(9)), ItemId(0), Value(7), Tick(1));
        let mut b = Workspace::new(owner());
        b.read(&db, ItemId(0));
        b.write(1, ItemId(5));

        assert_ne!(
            a.staged_value(ItemId(5)).unwrap(),
            b.staged_value(ItemId(5)).unwrap()
        );
    }

    #[test]
    fn last_staged_write_wins() {
        let mut db = Database::new();
        let mut ws = Workspace::new(owner());
        ws.write(0, ItemId(0));
        let second = ws.write(1, ItemId(0));
        let installed = ws.commit_into(&mut db, Tick(2));
        assert_eq!(installed, vec![(ItemId(0), second, 1)]);
    }

    #[test]
    fn reset_clears_state_and_rehomes() {
        let db = Database::new();
        let mut ws = Workspace::new(owner());
        ws.read(&db, ItemId(1));
        ws.write(0, ItemId(2));
        let cap = ws.staged.capacity();

        let next = InstanceId::first(TxnId(1));
        ws.reset(next);
        assert_eq!(ws.owner(), next);
        assert!(ws.staged_writes().is_empty());
        assert_eq!(ws.digest(), Value::INITIAL);
        assert!(ws.staged.capacity() >= cap);
    }
}
