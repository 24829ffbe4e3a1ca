//! Sharded-ceiling substrate: item→shard routing (DESIGN.md §6f).
//!
//! DPCP-p generalizes the priority-ceiling family to partitioned
//! resources: each partition keeps *local* ceilings and decisions, and a
//! thin global rule coordinates transactions that span partitions. Here
//! that rule keeps no ceiling of its own: a cross-shard transaction runs
//! no-wait against each shard's local ceiling and enters its shards in
//! canonical order. This module is the protocol-agnostic half of that
//! design, behind the runtime's sharded lock manager (one
//! [`crate::StateKernel`] per shard):
//!
//! * [`ShardRouter`] — the static partitioning rule. Items map to shards
//!   by index modulo the shard count, so a template's shard set is a
//!   deterministic function of the transaction set and both layers
//!   (runtime, workload generator) agree on it by construction.
//! * [`ShardSet`] — a bitmask over shards in **canonical (ascending)
//!   order**. Cross-shard transactions always enter shards in this
//!   order, which is what keeps shard-level acquisition cycle-free.

use rtdb_types::{ItemId, TransactionSet, TxnId};

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
}
