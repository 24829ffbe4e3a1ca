//! Retired write chains for early lock release, and the abort breakdown.
//!
//! Protocols that release write locks *before* commit (Bamboo,
//! Brook-2PL — the contention-tolerant family) need a released-but-
//! uncommitted write to stay visible, so later lockers of the item can
//! (a) read the dirty value, (b) be ordered *after* the releasing
//! transaction, and (c) be aborted if it aborts. `RetiredChains` is
//! (a): per item, the ordered chain of write locks released early, each
//! entry carrying the owner and its staged value. The chain order *is*
//! the required install order: each live entry will bump the item's
//! committed version by exactly one, so the predicted version of the
//! latest dirty value is `committed_version + chain_len` and stays
//! correct as earlier chain members commit.
//!
//! (b) and (c) are the commit gate, which is not kept here: a grant over
//! a chain puts the latest retiree on the grantee's
//! [`crate::Record::gate`], beside its restart hold, and the kernel's one
//! departure scan drains or cascades those lists (DESIGN.md §6h).

use rtdb_types::{InstanceId, ItemId, Value};

/// Why a transaction instance was aborted — the observable breakdown of
/// the restart paths ([`AbortBreakdown`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The instance aborted *itself* because proceeding would violate the
    /// protocol's ordering rule (Brook-2PL's wait-die, the sharded
    /// manager's no-wait cross-shard path).
    CeilingBlock,
    /// Chosen as the victim of wait-for deadlock resolution.
    DeadlockVictim,
    /// Wounded by a conflicting request or invalidated by a commit
    /// (2PL-HP / Bamboo abort-holders, OCC-BC broadcast commit).
    Wound,
    /// Cascading abort: a transaction whose dirty data this instance
    /// depended on aborted.
    Cascade,
}

/// Per-reason abort counters, summed over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbortBreakdown {
    /// Self-aborts (ordering rule / no-wait path).
    pub ceiling_block: u64,
    /// Deadlock-resolution victims.
    pub deadlock_victim: u64,
    /// Wounds by conflicting requests or commit validation.
    pub wound: u64,
    /// Cascading aborts through the commit gates.
    pub cascade: u64,
}

impl AbortBreakdown {
    /// Count one abort for `reason`.
    pub fn record(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::CeilingBlock => self.ceiling_block += 1,
            AbortReason::DeadlockVictim => self.deadlock_victim += 1,
            AbortReason::Wound => self.wound += 1,
            AbortReason::Cascade => self.cascade += 1,
        }
    }

    /// Sum of all reasons.
    pub fn total(&self) -> u64 {
        self.ceiling_block + self.deadlock_victim + self.wound + self.cascade
    }

    /// Add `other`'s counters into `self`.
    pub fn merge(&mut self, other: &AbortBreakdown) {
        self.ceiling_block += other.ceiling_block;
        self.deadlock_victim += other.deadlock_victim;
        self.wound += other.wound;
        self.cascade += other.cascade;
    }
}

/// One early-released (retired) write lock: the owner and the value it
/// staged for the item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RetiredWrite {
    /// The transaction that released the write lock before commit.
    pub(crate) owner: InstanceId,
    /// Its staged (dirty, uncommitted) value for the item.
    pub(crate) value: Value,
}

/// The retired chains (module docs): dense per-item state indexed by
/// `ItemId::index()`, grown on demand; an emptied chain keeps its
/// capacity.
#[derive(Clone, Debug, Default)]
pub(crate) struct RetiredChains {
    chains: Vec<Vec<RetiredWrite>>,
}

impl RetiredChains {
    /// Record an early release of `owner`'s write lock on `item` with its
    /// staged `value`. The entry joins the end of the item's chain.
    pub(crate) fn retire(&mut self, owner: InstanceId, item: ItemId, value: Value) {
        let idx = item.index();
        if idx >= self.chains.len() {
            self.chains.resize_with(idx + 1, Vec::new);
        }
        let chain = &mut self.chains[idx];
        debug_assert!(
            chain.iter().all(|e| e.owner != owner),
            "{owner} retired {item:?} twice"
        );
        chain.push(RetiredWrite { owner, value });
    }

    /// The latest live retired write on `item`, with the chain length
    /// (the latest entry's 1-based position): the dirty value a new
    /// locker observes, predicted to commit at
    /// `committed_version + chain_len`.
    pub(crate) fn latest(&self, item: ItemId) -> Option<(RetiredWrite, usize)> {
        let chain = self.chains.get(item.index())?;
        chain.last().map(|&e| (e, chain.len()))
    }

    /// `owner` committed or aborted: drop its entries from the chains of
    /// `items`, a superset of the items it retired (its staged writes).
    pub(crate) fn drop_owner(&mut self, owner: InstanceId, items: &[ItemId]) {
        for item in items {
            if let Some(chain) = self.chains.get_mut(item.index()) {
                chain.retain(|e| e.owner != owner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_records_and_merges() {
        let mut a = AbortBreakdown::default();
        a.record(AbortReason::Wound);
        a.record(AbortReason::Cascade);
        a.record(AbortReason::Cascade);
        let mut b = AbortBreakdown::default();
        b.record(AbortReason::CeilingBlock);
        b.record(AbortReason::DeadlockVictim);
        a.merge(&b);
        assert_eq!(a.wound, 1);
        assert_eq!(a.cascade, 2);
        assert_eq!(a.ceiling_block, 1);
        assert_eq!(a.deadlock_victim, 1);
        assert_eq!(a.total(), 5);
    }
}
