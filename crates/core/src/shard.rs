//! Sharded-ceiling substrate: item→shard routing and the lock-free
//! global-ceiling coordination layer (DESIGN.md §6e).
//!
//! DPCP-p generalizes the priority-ceiling family to partitioned
//! resources: each partition keeps *local* ceilings and decisions, and a
//! thin global rule coordinates transactions that span partitions. This
//! module is the protocol-agnostic half of that design, behind the
//! runtime's sharded lock manager (one [`crate::StateKernel`] per shard):
//!
//! * [`ShardRouter`] — the static partitioning rule. Items map to shards
//!   by index modulo the shard count, so a template's shard set is a
//!   deterministic function of the transaction set and both layers
//!   (runtime, workload generator) agree on it by construction.
//! * [`ShardSet`] — a bitmask over shards in **canonical (ascending)
//!   order**. Cross-shard transactions always enter shards in this
//!   order, which is what keeps shard-level acquisition cycle-free.
//! * [`GlobalCeiling`] — the published-per-shard ceiling max. Every
//!   shard publishes its local system ceiling (one `Release` store) when
//!   a lock-table transition changes it; the cross-shard admission test
//!   reads the max over the shards a transaction will touch without
//!   taking any shard's lock. The test is *advisory*: a stale read can
//!   only delay or admit early, never corrupt shard-local state, so the
//!   publication protocol needs no fences beyond the store itself.

use crate::waitfor::WaitForGraph;
use rtdb_types::{Ceiling, InstanceId, ItemId, Priority, TransactionSet, TxnId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Hard cap on shards: a [`ShardSet`] is a `u64` bitmask.
pub const MAX_SHARDS: usize = 64;

/// A set of shard indices, iterated in canonical (ascending) order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSet(u64);

impl ShardSet {
    /// The empty set.
    pub const EMPTY: ShardSet = ShardSet(0);

    /// Insert a shard index.
    pub fn insert(&mut self, shard: usize) {
        debug_assert!(shard < MAX_SHARDS);
        self.0 |= 1 << shard;
    }

    /// True if `shard` is in the set.
    pub fn contains(self, shard: usize) -> bool {
        shard < MAX_SHARDS && self.0 & (1 << shard) != 0
    }

    /// Number of shards in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if the set spans more than one shard.
    pub fn is_cross_shard(self) -> bool {
        self.len() > 1
    }

    /// Lowest shard index in the set — the *home* shard of a transaction
    /// (where its Begin/Commit events are logged).
    pub fn home(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Iterate the shard indices in canonical (ascending) order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let s = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(s)
            }
        })
    }
}

/// The static item→shard partitioning rule.
///
/// Items hash by index modulo the shard count. The rule is shared
/// verbatim by the runtime's sharded manager (it also scopes each shard's
/// kernel) and the partitioned workload generator, so "partition `p` of the
/// workload" and "shard `p` of the manager" coincide whenever the two
/// counts agree.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Router over `shards` partitions (clamped to `1..=MAX_SHARDS`).
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: shards.clamp(1, MAX_SHARDS),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `item`.
    #[inline]
    pub fn shard_of(&self, item: ItemId) -> usize {
        item.0 as usize % self.shards
    }

    /// The set of shards a template's data steps touch. Templates with no
    /// data steps report their would-be home shard (shard 0) so every
    /// transaction has a home to log Begin/Commit in.
    pub fn shards_of(&self, set: &TransactionSet, txn: TxnId) -> ShardSet {
        let mut out = ShardSet::EMPTY;
        for step in &set.template(txn).steps {
            if let Some((item, _)) = step.op.access() {
                out.insert(self.shard_of(item));
            }
        }
        if out.is_empty() {
            out.insert(0);
        }
        out
    }
}

/// Encode a [`Ceiling`] into the `u64` a shard publishes: `Dummy` → 0,
/// `At(p)` → `p.level() + 1`. The encoding is order-preserving, so the
/// published max over shards decodes to the max ceiling.
pub fn encode_ceiling(c: Ceiling) -> u64 {
    match c.priority() {
        None => 0,
        Some(p) => u64::from(p.level()) + 1,
    }
}

/// Inverse of [`encode_ceiling`].
pub fn decode_ceiling(e: u64) -> Ceiling {
    if e == 0 {
        Ceiling::Dummy
    } else {
        Ceiling::At(Priority((e - 1) as u32))
    }
}

/// The lock-free global-ceiling coordination layer: one published slot
/// per shard, written by that shard alone (under its own state lock) and
/// read by anyone without coordination.
///
/// Single-shard transactions never consult this — their shard's local
/// ceiling already governs them. Cross-shard transactions run the
/// *advisory* admission test [`GlobalCeiling::cleared_by`] before
/// touching any shard: wait (bounded) until their priority clears the
/// published max of every shard they will enter. Because the test takes
/// no locks it can race a concurrent transition in either direction;
/// both races are benign — admission control here only shapes
/// contention, the per-shard protocols still decide every lock.
#[derive(Debug)]
pub struct GlobalCeiling {
    published: Vec<AtomicU64>,
    publishes: Vec<AtomicU64>,
}

impl GlobalCeiling {
    /// Layer over `shards` shards, all ceilings initially `Dummy`.
    pub fn new(shards: usize) -> Self {
        GlobalCeiling {
            published: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            publishes: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.published.len()
    }

    /// Publish shard `shard`'s local system ceiling. Called by the shard
    /// itself, under its own state lock, when a lock-table transition
    /// changed the ceiling.
    pub fn publish(&self, shard: usize, ceiling: Ceiling) {
        self.published[shard].store(encode_ceiling(ceiling), Ordering::Release);
        self.publishes[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// The last ceiling shard `shard` published.
    pub fn shard_ceiling(&self, shard: usize) -> Ceiling {
        decode_ceiling(self.published[shard].load(Ordering::Acquire))
    }

    /// Times shard `shard` published (telemetry).
    pub fn publish_count(&self, shard: usize) -> u64 {
        self.publishes[shard].load(Ordering::Relaxed)
    }

    /// Max published ceiling over `shards` (the whole system when every
    /// bit is set).
    pub fn max_over(&self, shards: ShardSet) -> Ceiling {
        let mut max = Ceiling::Dummy;
        for s in shards.iter() {
            if s < self.published.len() {
                max = max.max(self.shard_ceiling(s));
            }
        }
        max
    }

    /// The advisory cross-shard admission test: does `priority` clear the
    /// published ceiling max of every shard in `shards`?
    pub fn cleared_by(&self, priority: Priority, shards: ShardSet) -> bool {
        self.max_over(shards).cleared_by(priority)
    }
}

/// Deadlock-victim rule, applied by [`crate::StateKernel::find_deadlock`]
/// for both engines: the lowest-base-priority instance on the cycle, ties
/// broken toward the smaller id.
pub fn deadlock_victim(
    cycle: &[InstanceId],
    mut base_of: impl FnMut(InstanceId) -> Priority,
) -> InstanceId {
    cycle
        .iter()
        .copied()
        .min_by_key(|&v| (base_of(v), v))
        .expect("cycle is non-empty")
}

/// Detect a wait-for cycle over `edges` and pick its victim, in one step.
pub fn find_deadlock_victim<'e>(
    edges: impl Iterator<Item = (InstanceId, &'e [InstanceId])>,
    base_of: impl FnMut(InstanceId) -> Priority,
) -> Option<(Vec<InstanceId>, InstanceId)> {
    let cycle = WaitForGraph::from_edges(edges).find_cycle()?;
    let victim = deadlock_victim(&cycle, base_of);
    Some((cycle, victim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{SetBuilder, Step, TransactionTemplate};

    #[test]
    fn shard_set_iterates_in_canonical_order() {
        let mut s = ShardSet::EMPTY;
        s.insert(5);
        s.insert(0);
        s.insert(3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 5]);
        assert_eq!(s.home(), Some(0));
        assert_eq!(s.len(), 3);
        assert!(s.is_cross_shard());
        assert!(s.contains(3) && !s.contains(4));
        assert_eq!(ShardSet::EMPTY.home(), None);
        let mut single = ShardSet::EMPTY;
        single.insert(2);
        assert!(!single.is_cross_shard());
    }

    #[test]
    fn router_partitions_by_modulo() {
        let r = ShardRouter::new(4);
        assert_eq!(r.shard_of(ItemId(0)), 0);
        assert_eq!(r.shard_of(ItemId(5)), 1);
        assert_eq!(r.shard_of(ItemId(7)), 3);
        assert_eq!(ShardRouter::new(0).shards(), 1, "clamped to one shard");
        assert_eq!(ShardRouter::new(1 << 20).shards(), MAX_SHARDS);
    }

    #[test]
    fn template_shard_sets_follow_the_items() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new("B", 20, vec![Step::compute(1)]))
            .build()
            .unwrap();
        let r = ShardRouter::new(2);
        let a = r.shards_of(&set, TxnId(0));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0]);
        assert!(!a.is_cross_shard(), "items 0 and 2 share shard 0 of 2");
        // A compute-only template still gets a home shard.
        assert_eq!(r.shards_of(&set, TxnId(1)).home(), Some(0));
        let r4 = ShardRouter::new(4);
        assert!(r4.shards_of(&set, TxnId(0)).is_cross_shard());
    }

    #[test]
    fn ceiling_encoding_roundtrips_and_preserves_order() {
        for c in [
            Ceiling::Dummy,
            Ceiling::At(Priority(0)),
            Ceiling::At(Priority(7)),
            Ceiling::At(Priority::MAX),
        ] {
            assert_eq!(decode_ceiling(encode_ceiling(c)), c);
        }
        assert!(encode_ceiling(Ceiling::Dummy) < encode_ceiling(Ceiling::At(Priority(0))));
        assert!(
            encode_ceiling(Ceiling::At(Priority(1))) < encode_ceiling(Ceiling::At(Priority(2)))
        );
    }

    #[test]
    fn global_ceiling_publishes_and_maxes() {
        let g = GlobalCeiling::new(4);
        let mut all = ShardSet::EMPTY;
        (0..4).for_each(|s| all.insert(s));
        assert_eq!(g.max_over(all), Ceiling::Dummy);
        assert!(g.cleared_by(Priority(0), all), "everything clears Dummy");

        g.publish(1, Ceiling::At(Priority(5)));
        g.publish(3, Ceiling::At(Priority(2)));
        assert_eq!(g.shard_ceiling(1), Ceiling::At(Priority(5)));
        assert_eq!(g.max_over(all), Ceiling::At(Priority(5)));
        assert!(!g.cleared_by(Priority(5), all), "equal does not clear");
        assert!(g.cleared_by(Priority(6), all));
        // A set avoiding the hot shard only sees the lower ceiling.
        let mut cold = ShardSet::EMPTY;
        cold.insert(0);
        cold.insert(3);
        assert_eq!(g.max_over(cold), Ceiling::At(Priority(2)));
        assert!(g.cleared_by(Priority(3), cold));
        assert_eq!(g.publish_count(1), 1);
        assert_eq!(g.publish_count(0), 0);
    }

    #[test]
    fn deadlock_victim_prefers_lowest_base_then_id() {
        let a = InstanceId::new(TxnId(0), 0);
        let b = InstanceId::new(TxnId(1), 0);
        let c = InstanceId::new(TxnId(2), 0);
        let base = |who: InstanceId| match who.txn.0 {
            0 => Priority(3),
            1 => Priority(1),
            _ => Priority(1),
        };
        assert_eq!(deadlock_victim(&[a, b, c], base), b, "tie broken by id");
    }
}
