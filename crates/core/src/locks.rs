//! The lock table.
//!
//! Tracks, per item, the set of read holders and the set of write holders.
//! Unusually for a lock manager, *several* concurrent write holders are
//! representable: under PCP-DA's deferred-update model two blind writes do
//! not conflict (paper §4.1, Case 3), so LC1 admits a write lock regardless
//! of existing write locks. Protocols that forbid this (2PL, RW-PCP, PCP)
//! simply never grant the second write lock.
//!
//! The table is pure bookkeeping: *who may lock what* is decided by a
//! [`crate::ProtocolFor`]; the engine records grants and releases here.
//!
//! # Layout
//!
//! Per-item state lives in a dense `Vec` indexed by `ItemId` (items are
//! small consecutive integers), with sorted small-vector holder sets —
//! and the reverse index (instance → its locks) is one id-sorted `Vec`
//! whose per-instance lists are recycled through a spare pool — live
//! instances are few and churn constantly, the idiom of
//! [`crate::PriorityManager`] and the kernel's records. No tree nodes
//! anywhere, every accessor hands back an iterator over the stored slices
//! instead of allocating, `release_all` returns the departing instance's
//! own list, and once every buffer has reached its working size no
//! transition allocates.
//!
//! A table built with [`LockTable::with_index`] (every `Sysceil` flavor)
//! or [`LockTable::with_flavor`] (the one the running protocol reads)
//! additionally carries a [`CeilingIndex`] that it notifies of every state
//! *transition* (grants and releases are idempotent, so no-ops never
//! reach the index), keeping the incremental `Sysceil` multisets exactly
//! in sync with the holder sets by construction.

use crate::ceiling_index::{CeilingFlavor, CeilingIndex};
use crate::ceilings::CeilingTable;
use rtdb_types::{InstanceId, ItemId, LockMode};

/// One lock held by an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeldLock {
    /// Locked item.
    pub item: ItemId,
    /// Mode held.
    pub mode: LockMode,
}

#[derive(Clone, Debug, Default)]
struct ItemLocks {
    /// Sorted.
    readers: Vec<InstanceId>,
    /// Sorted.
    writers: Vec<InstanceId>,
}

impl ItemLocks {
    fn is_empty(&self) -> bool {
        self.readers.is_empty() && self.writers.is_empty()
    }

    fn set(&mut self, mode: LockMode) -> &mut Vec<InstanceId> {
        match mode {
            LockMode::Read => &mut self.readers,
            LockMode::Write => &mut self.writers,
        }
    }

    /// Insert into the sorted holder vec; false if already present.
    fn insert(&mut self, mode: LockMode, who: InstanceId) -> bool {
        let set = self.set(mode);
        match set.binary_search(&who) {
            Ok(_) => false,
            Err(pos) => {
                set.insert(pos, who);
                true
            }
        }
    }

    /// Remove from the sorted holder vec; false if absent.
    fn remove(&mut self, mode: LockMode, who: InstanceId) -> bool {
        let set = self.set(mode);
        match set.binary_search(&who) {
            Ok(pos) => {
                set.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    fn holds(&self, mode: LockMode, who: InstanceId) -> bool {
        match mode {
            LockMode::Read => self.readers.binary_search(&who).is_ok(),
            LockMode::Write => self.writers.binary_search(&who).is_ok(),
        }
    }
}

/// The lock table of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    /// Dense per-item state, indexed by `ItemId::index()`; grown on demand.
    items: Vec<ItemLocks>,
    /// Number of items with at least one holder.
    locked_count: usize,
    /// Reverse index: instances holding at least one lock, ascending,
    /// each with its held locks (sorted).
    held: Vec<(InstanceId, Vec<HeldLock>)>,
    /// Emptied lock lists awaiting the next instance.
    spare: Vec<Vec<HeldLock>>,
    /// What the last [`LockTable::release_all`] released.
    released: Vec<HeldLock>,
    /// Monotone state-transition counter (idempotent no-ops don't bump).
    version: u64,
    /// Incremental `Sysceil` index, when enabled.
    index: Option<CeilingIndex>,
}

impl LockTable {
    /// Empty table without an incremental ceiling index (`Sysceil` queries
    /// fall back to the from-scratch scans).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty table carrying a [`CeilingIndex`] over `ceilings` for every
    /// flavor: `Sysceil` queries become O(1) lookups kept in sync with
    /// every grant/release.
    pub fn with_index(ceilings: &CeilingTable) -> Self {
        LockTable {
            index: Some(CeilingIndex::new(ceilings, &CeilingFlavor::ALL)),
            ..Self::default()
        }
    }

    /// Empty table indexing only the `Sysceil` flavor the running
    /// protocol reads ([`crate::ProtocolFor::ceiling_flavor`]) — none for
    /// a protocol without ceilings. Queries for any other flavor fall
    /// back to the scans.
    pub fn with_flavor(ceilings: &CeilingTable, flavor: Option<CeilingFlavor>) -> Self {
        LockTable {
            index: flavor.map(|f| CeilingIndex::new(ceilings, &[f])),
            ..Self::default()
        }
    }

    /// The incremental ceiling index, if this table carries one.
    pub fn index(&self) -> Option<&CeilingIndex> {
        self.index.as_ref()
    }

    /// Monotone state-transition counter: two equal versions guarantee an
    /// unchanged lock state, so anything derived from it (a shard's
    /// published ceiling) needs refreshing only when the version moved.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn item_locks_mut(&mut self, item: ItemId) -> &mut ItemLocks {
        let idx = item.index();
        if idx >= self.items.len() {
            self.items.resize_with(idx + 1, ItemLocks::default);
        }
        &mut self.items[idx]
    }

    fn item_locks(&self, item: ItemId) -> Option<&ItemLocks> {
        self.items.get(item.index())
    }

    /// Where `who` sits in `held`, or where it would be inserted.
    fn held_pos(&self, who: InstanceId) -> Result<usize, usize> {
        self.held.binary_search_by_key(&who, |&(id, _)| id)
    }

    /// Record a granted lock. Granting a mode already held is a no-op
    /// (idempotent), so upgrades just add the second mode.
    pub fn grant(&mut self, who: InstanceId, item: ItemId, mode: LockMode) {
        let locks = self.item_locks_mut(item);
        let was_empty = locks.is_empty();
        let other_mode_held = locks.holds(mode.other(), who);
        if !locks.insert(mode, who) {
            return; // idempotent re-grant
        }
        self.version += 1;
        if was_empty {
            self.locked_count += 1;
        }
        let at = match self.held_pos(who) {
            Ok(at) => at,
            Err(at) => {
                let list = self.spare.pop().unwrap_or_default();
                self.held.insert(at, (who, list));
                at
            }
        };
        let held = &mut self.held[at].1;
        let lock = HeldLock { item, mode };
        if let Err(pos) = held.binary_search(&lock) {
            held.insert(pos, lock);
        }
        if let Some(ix) = self.index.as_mut() {
            ix.on_lock_added(who, item, mode, !other_mode_held);
        }
    }

    /// Release one lock (CCP's early unlock). No-op if not held.
    pub fn release(&mut self, who: InstanceId, item: ItemId, mode: LockMode) {
        let Some(locks) = self.items.get_mut(item.index()) else {
            return;
        };
        if !locks.remove(mode, who) {
            return; // not held
        }
        self.version += 1;
        if locks.is_empty() {
            self.locked_count -= 1;
        }
        let other_mode_held = locks.holds(mode.other(), who);
        if let Ok(at) = self.held_pos(who) {
            let held = &mut self.held[at].1;
            let lock = HeldLock { item, mode };
            if let Ok(pos) = held.binary_search(&lock) {
                held.remove(pos);
            }
            if held.is_empty() {
                let (_, list) = self.held.remove(at);
                self.spare.push(list);
            }
        }
        if let Some(ix) = self.index.as_mut() {
            ix.on_lock_removed(who, item, mode, !other_mode_held);
        }
    }

    /// Release every lock held by `who` (commit or abort); returns them as
    /// a slice of an internal buffer (valid until the next call).
    pub fn release_all(&mut self, who: InstanceId) -> &[HeldLock] {
        self.released.clear();
        let Ok(at) = self.held_pos(who) else {
            return &self.released;
        };
        // The departing list becomes the returned buffer; the previous
        // one goes back to the pool.
        let (_, held) = self.held.remove(at);
        self.spare.push(std::mem::replace(&mut self.released, held));
        for i in 0..self.released.len() {
            let HeldLock { item, mode } = self.released[i];
            let locks = &mut self.items[item.index()];
            locks.remove(mode, who);
            self.version += 1;
            if locks.is_empty() {
                self.locked_count -= 1;
            }
            let other_mode_held = locks.holds(mode.other(), who);
            if let Some(ix) = self.index.as_mut() {
                ix.on_lock_removed(who, item, mode, !other_mode_held);
            }
        }
        &self.released
    }

    /// True if `who` holds `item` in `mode`.
    pub fn holds(&self, who: InstanceId, item: ItemId, mode: LockMode) -> bool {
        self.item_locks(item)
            .is_some_and(|locks| locks.holds(mode, who))
    }

    /// True if a lock `who` already holds makes a request for `item` in
    /// `mode` redundant: an exact re-grant is idempotent, and a write lock
    /// covers reads (the reader sees its own staged value). Shared by the
    /// simulator's dispatch and the threaded runtime's lock manager so
    /// both skip the protocol on covered requests identically.
    pub fn covers(&self, who: InstanceId, item: ItemId, mode: LockMode) -> bool {
        match mode {
            LockMode::Read => {
                self.holds(who, item, LockMode::Read) || self.holds(who, item, LockMode::Write)
            }
            LockMode::Write => self.holds(who, item, LockMode::Write),
        }
    }

    /// All locks held by `who`.
    pub fn held_by(&self, who: InstanceId) -> impl Iterator<Item = HeldLock> + '_ {
        self.held_pos(who)
            .ok()
            .into_iter()
            .flat_map(|at| self.held[at].1.iter().copied())
    }

    /// Read holders of `item`.
    pub fn readers(&self, item: ItemId) -> impl Iterator<Item = InstanceId> + '_ {
        self.item_locks(item)
            .into_iter()
            .flat_map(|l| l.readers.iter().copied())
    }

    /// Write holders of `item`.
    pub fn writers(&self, item: ItemId) -> impl Iterator<Item = InstanceId> + '_ {
        self.item_locks(item)
            .into_iter()
            .flat_map(|l| l.writers.iter().copied())
    }

    /// `No_Rlock(x)` of the paper: true if `item` is *not* read-locked by
    /// any transaction other than `who`.
    pub fn no_rlock_by_others(&self, item: ItemId, who: InstanceId) -> bool {
        self.readers(item).all(|r| r == who)
    }

    /// Read holders of `item` other than `who`.
    pub fn readers_other_than(
        &self,
        item: ItemId,
        who: InstanceId,
    ) -> impl Iterator<Item = InstanceId> + '_ {
        self.readers(item).filter(move |&r| r != who)
    }

    /// Write holders of `item` other than `who`.
    pub fn writers_other_than(
        &self,
        item: ItemId,
        who: InstanceId,
    ) -> impl Iterator<Item = InstanceId> + '_ {
        self.writers(item).filter(move |&w| w != who)
    }

    /// Every item currently holding at least one lock (ascending).
    pub fn locked_item_ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, _)| ItemId(i as u32))
    }

    /// Items read-locked by transactions other than `who`, with those
    /// holders. Drives PCP-DA's `Sysceil`. Allocation-free: both levels
    /// iterate the stored holder slices directly.
    pub fn read_locked_by_others(
        &self,
        who: InstanceId,
    ) -> impl Iterator<Item = (ItemId, impl Iterator<Item = InstanceId> + '_)> + '_ {
        self.items.iter().enumerate().filter_map(move |(i, locks)| {
            let mut holders = locks
                .readers
                .iter()
                .copied()
                .filter(move |&r| r != who)
                .peekable();
            holders.peek()?;
            Some((ItemId(i as u32), holders))
        })
    }

    /// All instances currently holding at least one lock.
    pub fn holders(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.held.iter().map(|&(id, _)| id)
    }

    /// Number of locked items.
    pub fn locked_items(&self) -> usize {
        self.locked_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::TxnId;

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    #[test]
    fn grant_and_release_roundtrip() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Read);
        lt.grant(i(0), ItemId(1), LockMode::Write);
        assert!(lt.holds(i(0), ItemId(0), LockMode::Read));
        assert!(!lt.holds(i(0), ItemId(0), LockMode::Write));
        assert_eq!(lt.held_by(i(0)).count(), 2);

        let released: Vec<HeldLock> = lt.release_all(i(0)).to_vec();
        assert_eq!(released.len(), 2);
        assert_eq!(lt.held_by(i(0)).count(), 0);
        assert_eq!(lt.locked_items(), 0);
    }

    #[test]
    fn multiple_writers_are_representable() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Write);
        lt.grant(i(1), ItemId(0), LockMode::Write);
        assert_eq!(lt.writers(ItemId(0)).count(), 2);
    }

    #[test]
    fn upgrade_holds_both_modes() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Read);
        lt.grant(i(0), ItemId(0), LockMode::Write);
        assert!(lt.holds(i(0), ItemId(0), LockMode::Read));
        assert!(lt.holds(i(0), ItemId(0), LockMode::Write));
        lt.release(i(0), ItemId(0), LockMode::Write);
        assert!(lt.holds(i(0), ItemId(0), LockMode::Read));
        assert_eq!(lt.locked_items(), 1);
    }

    #[test]
    fn no_rlock_ignores_own_read_lock() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Read);
        assert!(lt.no_rlock_by_others(ItemId(0), i(0)));
        lt.grant(i(1), ItemId(0), LockMode::Read);
        assert!(!lt.no_rlock_by_others(ItemId(0), i(0)));
        assert_eq!(lt.readers_other_than(ItemId(0), i(0)).count(), 1);
    }

    #[test]
    fn read_locked_by_others_excludes_self_and_write_locks() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Read); // own read
        lt.grant(i(1), ItemId(1), LockMode::Write); // other's write
        lt.grant(i(1), ItemId(2), LockMode::Read); // other's read
        let items: Vec<ItemId> = lt.read_locked_by_others(i(0)).map(|(x, _)| x).collect();
        assert_eq!(items, vec![ItemId(2)]);
    }

    #[test]
    fn locked_item_ids_tracks_live_items() {
        let mut lt = LockTable::new();
        lt.grant(i(1), ItemId(3), LockMode::Read);
        lt.grant(i(2), ItemId(0), LockMode::Write);
        let ids: Vec<ItemId> = lt.locked_item_ids().collect();
        assert_eq!(ids, vec![ItemId(0), ItemId(3)]);
        lt.release(i(2), ItemId(0), LockMode::Write);
        let ids: Vec<ItemId> = lt.locked_item_ids().collect();
        assert_eq!(ids, vec![ItemId(3)]);
    }

    #[test]
    fn release_is_idempotent() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Read);
        lt.release(i(0), ItemId(0), LockMode::Read);
        lt.release(i(0), ItemId(0), LockMode::Read);
        assert_eq!(lt.locked_items(), 0);
        assert!(lt.release_all(i(0)).is_empty());
    }

    #[test]
    fn grant_is_idempotent() {
        let mut lt = LockTable::new();
        lt.grant(i(0), ItemId(0), LockMode::Read);
        lt.grant(i(0), ItemId(0), LockMode::Read);
        assert_eq!(lt.held_by(i(0)).count(), 1);
        assert_eq!(lt.readers(ItemId(0)).count(), 1);
        lt.release(i(0), ItemId(0), LockMode::Read);
        assert_eq!(lt.locked_items(), 0);
    }

    #[test]
    fn version_counts_transitions_only() {
        let mut lt = LockTable::new();
        assert_eq!(lt.version(), 0);
        lt.grant(i(0), ItemId(0), LockMode::Read);
        let v1 = lt.version();
        assert!(v1 > 0);
        lt.grant(i(0), ItemId(0), LockMode::Read); // idempotent: no bump
        assert_eq!(lt.version(), v1);
        lt.release(i(0), ItemId(0), LockMode::Read);
        assert!(lt.version() > v1);
    }
}
