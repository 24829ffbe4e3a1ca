//! Bounded multiversion chains for the snapshot read path.
//!
//! The update-in-workspace model installs all of a transaction's writes
//! atomically at commit, so every commit is a natural version boundary: we
//! stamp each lock-path commit with a global, monotonically increasing
//! **commit stamp** and keep, per item, a short chain of
//! `(stamp, VersionedValue)` entries. A read-only transaction pins the
//! current stamp `S` once and reads, for every item, the newest entry whose
//! stamp is `<= S` — a consistent snapshot equal to the database state after
//! exactly the first `S` commits, without acquiring a single lock.
//!
//! Reclamation is epoch-style: a **floor** stamp tracks the oldest snapshot
//! any reader may still observe, and chains are pruned to "newest entry at
//! or below the floor, plus everything above it". Publishing prunes the
//! chains it touches (hot items stay short), and a periodic full sweep
//! retires the tails of cold chains, so long open-loop soaks stay
//! memory-flat.
//!
//! Two implementations share the discipline:
//!
//! * [`MvStore`] — plain single-threaded store for the discrete-event
//!   simulator;
//! * [`SnapshotStore`] — the concurrent store for `rtdb-rt`, pure `std`
//!   (per-item mutexes + atomics, no unsafe): writers publish under the
//!   manager's state lock, readers pin with a publish-then-verify protocol
//!   and never block on anything but a single per-item mutex held for a
//!   binary search and a copy.

use crate::db::VersionedValue;
use rtdb_types::ItemId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

/// Global commit stamp: the number of lock-path commits that have sealed.
/// Stamp 0 is the initial database (no commits); the transaction that
/// commits `k`-th (in commit order) installs its writes at stamp `k`.
pub type Stamp = u64;

/// Sentinel for "no active snapshot" in a reader slot.
pub const NO_SNAPSHOT: Stamp = u64::MAX;

/// How many publishes between full sweeps over all chains (cold-item GC).
/// Also the unit of the chain-length bound: the floor only moves at a
/// sweep, so a hot chain grows by up to one interval between two.
pub const SWEEP_INTERVAL: u64 = 256;

/// One item's version chain: `(stamp, value)` entries, stamp ascending.
/// At most one entry per stamp (a committing writer installs at most one
/// version per item).
type Chain = Vec<(Stamp, VersionedValue)>;

/// Newest entry at or below `stamp`, if any.
fn chain_read_at(chain: &Chain, stamp: Stamp) -> Option<VersionedValue> {
    match chain.binary_search_by_key(&stamp, |&(s, _)| s) {
        Ok(idx) => Some(chain[idx].1),
        Err(0) => None,
        Err(idx) => Some(chain[idx - 1].1),
    }
}

/// Prune `chain` to the reclamation rule: keep the newest entry with
/// stamp `<= floor` (the version every surviving snapshot at or above the
/// floor resolves to) and every entry above the floor.
fn chain_prune(chain: &mut Chain, floor: Stamp) {
    let cut = match chain.binary_search_by_key(&floor, |&(s, _)| s) {
        Ok(idx) => idx,
        Err(idx) => idx.saturating_sub(1),
    };
    if cut > 0 && chain.first().is_some_and(|&(s, _)| s <= floor) {
        chain.drain(..cut);
    }
}

/// Single-threaded multiversion side store for the simulator.
///
/// The engine publishes each committing writer's installs at the next
/// stamp, then [`MvStore::seal`]s the commit; read-only instances pin
/// [`MvStore::stamp`] at dispatch and resolve every read through
/// [`MvStore::read_at`]. [`MvStore::prune`] applies the epoch-GC rule given
/// the oldest stamp still pinned by an active snapshot.
#[derive(Clone, Debug, Default)]
pub struct MvStore {
    chains: std::collections::BTreeMap<ItemId, Chain>,
    stamp: Stamp,
    /// Longest chain ever observed (memory-flatness telemetry).
    high_water: usize,
}

impl MvStore {
    /// Empty store at stamp 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current commit stamp (number of sealed commits).
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Publish one installed version for the commit that will seal next
    /// (stamp `self.stamp() + 1`).
    pub fn publish(&mut self, item: ItemId, value: VersionedValue) {
        let chain = self.chains.entry(item).or_default();
        chain.push((self.stamp + 1, value));
        self.high_water = self.high_water.max(chain.len());
    }

    /// Seal the current commit: all versions published since the last seal
    /// become visible to snapshots taken from now on. Returns the new
    /// stamp. Read-only commits do not seal — they leave the stamp alone.
    pub fn seal(&mut self) -> Stamp {
        self.stamp += 1;
        self.stamp
    }

    /// The version of `item` visible at `stamp`, or `None` if no writer
    /// had committed to it by then (the item reads as
    /// [`VersionedValue::INITIAL`]).
    pub fn read_at(&self, item: ItemId, stamp: Stamp) -> Option<VersionedValue> {
        self.chains
            .get(&item)
            .and_then(|chain| chain_read_at(chain, stamp))
    }

    /// Retire every chain entry no snapshot at or above `floor` can
    /// observe.
    pub fn prune(&mut self, floor: Stamp) {
        for chain in self.chains.values_mut() {
            chain_prune(chain, floor);
        }
    }

    /// Longest per-item chain ever held (bounded-memory assertion hook).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Current length of the longest chain.
    pub fn max_chain_len(&self) -> usize {
        self.chains.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// Concurrent multiversion store for the threaded runtime.
///
/// * **Writers** (both lock managers) call [`SnapshotStore::publish`] from
///   inside the commit critical section — the manager's state lock already
///   serialises committers, so publishing needs no extra coordination
///   beyond the per-item mutexes readers share.
/// * **Readers** pin a snapshot with [`SnapshotStore::pin`], which
///   publishes the chosen stamp into the worker's slot *before* verifying
///   the GC floor has not passed it (retrying if it has), then resolve
///   reads through [`SnapshotStore::read_at`] and release with
///   [`SnapshotStore::unpin`]. Chains live behind per-item `RwLock`s, so
///   a Zipfian read storm on one hot item shares its head instead of
///   convoying on it — only the (serialised) publisher takes the write
///   side.
/// * **Reclamation** rides on publish: every publish prunes the chains it
///   touches against the current floor, and every `SWEEP_INTERVAL`-th
///   publish recomputes the floor from the reader slots and sweeps all
///   chains (retiring cold items' tails).
///
/// The floor-advance/pin race is closed Peterson-style: the floor is
/// stored *before* the slots are re-scanned (and lowered again if a
/// just-pinned reader appeared), while readers store their slot *before*
/// loading the floor — under the total order of `SeqCst` one of the two
/// always observes the other.
#[derive(Debug)]
pub struct SnapshotStore {
    heads: Vec<RwLock<Chain>>,
    stamp: AtomicU64,
    floor: AtomicU64,
    /// Per-worker active snapshot stamp ([`NO_SNAPSHOT`] = none).
    slots: Vec<AtomicU64>,
    publishes: AtomicU64,
    high_water: AtomicUsize,
}

impl SnapshotStore {
    /// Store for items `0..n_items` and workers `0..n_workers`.
    pub fn new(n_items: usize, n_workers: usize) -> Self {
        Self {
            heads: (0..n_items).map(|_| RwLock::new(Vec::new())).collect(),
            stamp: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: (0..n_workers)
                .map(|_| AtomicU64::new(NO_SNAPSHOT))
                .collect(),
            publishes: AtomicU64::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// The current commit stamp.
    pub fn stamp(&self) -> Stamp {
        self.stamp.load(Ordering::Acquire)
    }

    fn chain(&self, item: ItemId) -> &RwLock<Chain> {
        &self.heads[item.0 as usize]
    }

    /// Publish one committer's installs and seal them at the next stamp.
    /// MUST be called with the manager's state lock held (single publisher
    /// at a time); `writes` are the `(item, value)` pairs the commit
    /// installed into the database.
    pub fn publish(&self, writes: &[(ItemId, VersionedValue)]) {
        let next = self.stamp.load(Ordering::Relaxed) + 1;
        let floor = self.floor.load(Ordering::Relaxed);
        let mut longest = 0;
        for &(item, value) in writes {
            let mut chain = self.chain(item).write().unwrap();
            chain.push((next, value));
            chain_prune(&mut chain, floor);
            longest = longest.max(chain.len());
        }
        self.high_water.fetch_max(longest, Ordering::Relaxed);
        // Release-publish the stamp only after every chain entry is in
        // place: a reader that pins `next` must find all of its versions.
        self.stamp.store(next, Ordering::Release);
        if self.publishes.fetch_add(1, Ordering::Relaxed) % SWEEP_INTERVAL == SWEEP_INTERVAL - 1 {
            self.advance_floor();
        }
    }

    /// Recompute the GC floor from the reader slots and sweep every chain.
    /// Called automatically every `SWEEP_INTERVAL` publishes; callers
    /// holding the state lock may also invoke it directly (e.g. at the end
    /// of a run). Single caller at a time (state lock held).
    pub fn advance_floor(&self) {
        let scan_min = |slots: &[AtomicU64]| {
            slots
                .iter()
                .map(|s| s.load(Ordering::SeqCst))
                .min()
                .unwrap_or(NO_SNAPSHOT)
        };
        let stamp = self.stamp.load(Ordering::SeqCst);
        let mut floor = scan_min(&self.slots).min(stamp);
        // Announce before acting, then re-scan: a reader pinning
        // concurrently either sees this floor (and retries if passed) or
        // its slot is seen by the re-scan (and the floor is lowered).
        self.floor.store(floor, Ordering::SeqCst);
        let low = scan_min(&self.slots).min(stamp);
        if low < floor {
            floor = low;
            self.floor.store(floor, Ordering::SeqCst);
        }
        for head in &self.heads {
            let mut chain = head.write().unwrap();
            chain_prune(&mut chain, floor);
        }
    }

    /// Pin the current stamp as worker `worker`'s active snapshot and
    /// return it. Lock-free (a bounded retry loop against floor advance).
    pub fn pin(&self, worker: usize) -> Stamp {
        loop {
            let s = self.stamp.load(Ordering::Acquire);
            self.slots[worker].store(s, Ordering::SeqCst);
            if self.floor.load(Ordering::SeqCst) <= s {
                return s;
            }
            // The floor passed our candidate before the slot was visible;
            // drop the claim and retry at a fresher stamp.
            self.slots[worker].store(NO_SNAPSHOT, Ordering::SeqCst);
        }
    }

    /// Release worker `worker`'s active snapshot.
    pub fn unpin(&self, worker: usize) {
        self.slots[worker].store(NO_SNAPSHOT, Ordering::SeqCst);
    }

    /// The version of `item` visible at `stamp` (`None` = the item still
    /// reads as [`VersionedValue::INITIAL`]). `stamp` must be pinned.
    pub fn read_at(&self, item: ItemId, stamp: Stamp) -> Option<VersionedValue> {
        let chain = self.chain(item).read().unwrap();
        chain_read_at(&chain, stamp)
    }

    /// Longest per-item chain ever held (memory-flatness telemetry).
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Current length of the longest chain.
    pub fn max_chain_len(&self) -> usize {
        self.heads
            .iter()
            .map(|h| h.read().unwrap().len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{InstanceId, Tick, TxnId, Value};

    fn vv(version: u64, value: u64) -> VersionedValue {
        VersionedValue {
            value: Value(value),
            version,
            writer: Some(InstanceId::first(TxnId(0))),
            installed_at: Tick::ZERO,
        }
    }

    #[test]
    fn mvstore_reads_resolve_to_snapshot_stamp() {
        let mut mv = MvStore::new();
        assert_eq!(mv.read_at(ItemId(0), 0), None);

        mv.publish(ItemId(0), vv(1, 10));
        mv.seal();
        mv.publish(ItemId(0), vv(2, 20));
        mv.publish(ItemId(1), vv(1, 5));
        mv.seal();

        assert_eq!(mv.stamp(), 2);
        // Stamp 0: initial everywhere.
        assert_eq!(mv.read_at(ItemId(0), 0), None);
        // Stamp 1: only the first commit visible.
        assert_eq!(mv.read_at(ItemId(0), 1), Some(vv(1, 10)));
        assert_eq!(mv.read_at(ItemId(1), 1), None);
        // Stamp 2: both.
        assert_eq!(mv.read_at(ItemId(0), 2), Some(vv(2, 20)));
        assert_eq!(mv.read_at(ItemId(1), 2), Some(vv(1, 5)));
    }

    #[test]
    fn mvstore_prune_keeps_floor_visible_version() {
        let mut mv = MvStore::new();
        for i in 1..=5u64 {
            mv.publish(ItemId(0), vv(i, i * 10));
            mv.seal();
        }
        assert_eq!(mv.max_chain_len(), 5);
        mv.prune(3);
        // Stamps >= 3 must still resolve exactly.
        assert_eq!(mv.read_at(ItemId(0), 3), Some(vv(3, 30)));
        assert_eq!(mv.read_at(ItemId(0), 4), Some(vv(4, 40)));
        assert_eq!(mv.read_at(ItemId(0), 5), Some(vv(5, 50)));
        assert_eq!(mv.max_chain_len(), 3);
        assert_eq!(mv.high_water(), 5);

        // Pruning to the current stamp leaves exactly the latest version.
        mv.prune(mv.stamp());
        assert_eq!(mv.max_chain_len(), 1);
        assert_eq!(mv.read_at(ItemId(0), 5), Some(vv(5, 50)));
    }

    #[test]
    fn snapshot_store_pin_read_unpin() {
        let store = SnapshotStore::new(4, 2);
        let s0 = store.pin(0);
        assert_eq!(s0, 0);
        assert_eq!(store.read_at(ItemId(2), s0), None);

        store.publish(&[(ItemId(2), vv(1, 7))]);
        // The pinned snapshot still sees the pre-publish state.
        assert_eq!(store.read_at(ItemId(2), s0), None);

        let s1 = store.pin(1);
        assert_eq!(s1, 1);
        assert_eq!(store.read_at(ItemId(2), s1), Some(vv(1, 7)));
        store.unpin(0);
        store.unpin(1);
    }

    #[test]
    fn snapshot_store_floor_respects_pinned_readers() {
        let store = SnapshotStore::new(1, 2);
        store.publish(&[(ItemId(0), vv(1, 10))]);
        let pinned = store.pin(0); // stamp 1
        for i in 2..=6u64 {
            store.publish(&[(ItemId(0), vv(i, i * 10))]);
        }
        store.advance_floor();
        // Reader at stamp 1 must still resolve correctly after the sweep.
        assert_eq!(store.read_at(ItemId(0), pinned), Some(vv(1, 10)));
        store.unpin(0);
        store.advance_floor();
        // With no readers the chain collapses to the latest version.
        assert_eq!(store.max_chain_len(), 1);
        assert_eq!(store.read_at(ItemId(0), store.stamp()), Some(vv(6, 60)));
    }

    #[test]
    fn snapshot_store_publish_prunes_hot_chains() {
        let store = SnapshotStore::new(1, 1);
        // No readers: floor stays 0 until a sweep, but prune-on-publish
        // keeps the chain from growing without bound once the floor moves.
        for i in 1..=600u64 {
            store.publish(&[(ItemId(0), vv(i, i))]);
        }
        // At least one automatic sweep has run (600 > SWEEP_INTERVAL), so
        // the chain is bounded well below the publish count.
        assert!(store.max_chain_len() < 300, "len={}", store.max_chain_len());
        assert_eq!(store.read_at(ItemId(0), 600), Some(vv(600, 600)));
    }

    #[test]
    fn concurrent_readers_see_consistent_prefixes() {
        use std::sync::Arc;
        // Two items always written together: every consistent snapshot
        // must observe equal version numbers on both.
        let store = Arc::new(SnapshotStore::new(2, 4));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let writer = {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    for i in 1..=2000u64 {
                        store.publish(&[(ItemId(0), vv(i, i)), (ItemId(1), vv(i, i))]);
                    }
                    stop.store(1, Ordering::Release);
                })
            };
            for w in 0..3 {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while stop.load(Ordering::Acquire) == 0 {
                        let s = store.pin(w);
                        let a = store.read_at(ItemId(0), s).map_or(0, |v| v.version);
                        let b = store.read_at(ItemId(1), s).map_or(0, |v| v.version);
                        assert_eq!(a, b, "snapshot {s} saw torn versions {a}/{b}");
                        assert_eq!(a, s, "snapshot {s} resolved to version {a}");
                        store.unpin(w);
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(store.stamp(), 2000);
    }
}
