//! Private transaction workspaces (the update-in-workspace model, paper §4).

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
/// The workspace also maintains `DataRead(T_i)` — "the current set of data
/// items that transaction `T_i` has already read" — which the PCP-DA
/// locking condition LC4 consults.
///
/// Internally the staged writes and `DataRead` set are sorted `Vec`s rather
/// than tree maps: transactions touch a handful of items, so binary search
/// over a dense vector beats pointer-chasing, and [`Workspace::reset`] lets
/// the engine recycle the allocations across instances of the same
/// template.
#[derive(Clone, Debug)]
pub struct Workspace {
    owner: InstanceId,
    reads: Vec<ReadRecord>,
    /// Staged writes, sorted by item.
    staged: Vec<(ItemId, Value)>,
    /// `DataRead`, sorted.
    data_read: Vec<ItemId>,
    digest: Value,
    write_count: usize,
}

impl Workspace {
    /// Fresh workspace for `owner`.
    pub fn new(owner: InstanceId) -> Self {
        Self {
            owner,
            reads: Vec::new(),
            staged: Vec::new(),
            data_read: Vec::new(),
            digest: Value::INITIAL,
            write_count: 0,
        }
    }

    /// Clear all state and re-home the workspace to a new `owner`, keeping
    /// the buffers' capacity so recycled instances allocate nothing.
    pub fn reset(&mut self, owner: InstanceId) {
        self.owner = owner;
        self.reads.clear();
        self.staged.clear();
        self.data_read.clear();
        self.digest = Value::INITIAL;
        self.write_count = 0;
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

    #[inline]
    fn stage(&mut self, item: ItemId, value: Value) {
        match self.staged.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(idx) => self.staged[idx].1 = value,
            Err(idx) => self.staged.insert(idx, (item, value)),
        }
        self.write_count += 1;
    }

    /// Perform a read: own staged write if present, otherwise the latest
    /// committed version. Records the read and folds the value into the
    /// read digest.
    pub fn read(&mut self, db: &Database, item: ItemId) -> ReadRecord {
        self.read_over(item, db.get(item))
    }

    /// [`Workspace::read`] over another committed store (the serial
    /// replay's): `committed` is `item`'s latest committed version there.
    #[inline(always)]
    pub(crate) fn read_over(&mut self, item: ItemId, committed: &VersionedValue) -> ReadRecord {
        let rec = match self.staged_value(item) {
            Some(own_value) => ReadRecord {
                item,
                value: own_value,
                version: committed.version,
                own: true,
            },
            None => ReadRecord {
                item,
                value: committed.value,
                version: committed.version,
                own: false,
            },
        };
        self.reads.push(rec);
        // `DataRead` is the protocol-facing read set: the items whose
        // *committed pre-image* this transaction observed. A read served
        // from the transaction's own staged write cannot be invalidated by
        // any other writer's commit, so it does not enter the set (nor
        // does it take a read lock in the engine — the own write lock
        // covers it).
        if !rec.own {
            if let Err(idx) = self.data_read.binary_search(&item) {
                self.data_read.insert(idx, item);
            }
        }
        self.digest = self.digest.mix(rec.value);
        rec
    }

    /// Record a read served from a multiversion snapshot (the lock-exempt
    /// read-only path, see `crate::mvcc`). Snapshot readers never stage
    /// writes, so the observation can never be an own read; it still enters
    /// `DataRead` and the digest so histories and derived values stay
    /// comparable with the lock-based read path.
    pub fn read_versioned(&mut self, item: ItemId, value: Value, version: Version) -> ReadRecord {
        debug_assert!(
            self.staged.is_empty(),
            "snapshot readers never stage writes"
        );
        let rec = ReadRecord {
            item,
            value,
            version,
            own: false,
        };
        self.reads.push(rec);
        if let Err(idx) = self.data_read.binary_search(&item) {
            self.data_read.insert(idx, item);
        }
        self.digest = self.digest.mix(rec.value);
        rec
    }

    /// Record a **dirty** read: `value` is another transaction's
    /// uncommitted (early-released) write, `version` the version it is
    /// predicted to install at. Unlike [`Workspace::read_versioned`] the
    /// reader may stage writes of its own — early-release protocols mix
    /// dirty reads with updates — and like a committed-pre-image read the
    /// item enters `DataRead` (the read *can* be invalidated: a cascading
    /// abort discards it along with the whole instance).
    pub fn read_dirty(&mut self, item: ItemId, value: Value, version: Version) -> ReadRecord {
        debug_assert!(
            self.staged_value(item).is_none(),
            "own staged value shadows any dirty read"
        );
        let rec = ReadRecord {
            item,
            value,
            version,
            own: false,
        };
        self.reads.push(rec);
        if let Err(idx) = self.data_read.binary_search(&item) {
            self.data_read.insert(idx, item);
        }
        self.digest = self.digest.mix(rec.value);
        rec
    }

    /// Stage a write whose value is derived deterministically from the
    /// instance identity, the step index and everything read so far
    /// (see [`rtdb_types::derive_write`]). Returns the staged value.
    pub fn write(&mut self, step_index: usize, item: ItemId) -> Value {
        let value = derive_write(self.owner, step_index, item, self.digest);
        self.stage(item, value);
        value
    }

    /// `DataRead(T_i)`: the items whose committed pre-image this instance
    /// has observed (own-workspace reads excluded — they cannot be
    /// invalidated), sorted ascending.
    pub fn data_read(&self) -> &[ItemId] {
        &self.data_read
    }

    /// The staged (uncommitted) writes, sorted by item.
    pub fn staged_writes(&self) -> &[(ItemId, Value)] {
        &self.staged
    }

    /// The ordered log of reads.
    pub fn reads(&self) -> &[ReadRecord] {
        &self.reads
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
    fn data_read_tracks_items_not_values() {
        let db = Database::new();
        let mut ws = Workspace::new(owner());
        ws.read(&db, ItemId(1));
        ws.read(&db, ItemId(1));
        ws.read(&db, ItemId(2));
        assert_eq!(ws.data_read().len(), 2);
        assert!(ws.data_read().contains(&ItemId(1)));
        assert!(ws.data_read().contains(&ItemId(2)));
    }

    #[test]
    fn own_workspace_reads_stay_out_of_data_read() {
        let db = Database::new();
        let mut ws = Workspace::new(owner());
        ws.write(0, ItemId(3));
        ws.read(&db, ItemId(3)); // served from own staged write
        assert!(!ws.data_read().contains(&ItemId(3)));

        // But a committed-version read before the write does count.
        let mut ws2 = Workspace::new(owner());
        ws2.read(&db, ItemId(3));
        ws2.write(1, ItemId(3));
        ws2.read(&db, ItemId(3)); // now own
        assert!(ws2.data_read().contains(&ItemId(3)));
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
        let cap = (ws.reads.capacity(), ws.staged.capacity());

        let next = InstanceId::first(TxnId(1));
        ws.reset(next);
        assert_eq!(ws.owner(), next);
        assert!(ws.reads().is_empty());
        assert!(ws.staged_writes().is_empty());
        assert!(ws.data_read().is_empty());
        assert_eq!(ws.digest(), Value::INITIAL);
        assert!(ws.reads.capacity() >= cap.0);
        assert!(ws.staged.capacity() >= cap.1);
    }
}
