//! Dependency tracking for early lock release.
//!
//! Protocols that release write locks *before* commit (Bamboo,
//! Brook-2PL — the contention-tolerant family) need machinery the plain
//! [`crate::LockTable`] does not provide: a released-but-uncommitted
//! write must stay visible so later lockers of the item can (a) read the
//! dirty value, (b) be ordered *after* the releasing transaction, and
//! (c) be aborted if the releasing transaction aborts. [`DepTracker`]
//! is that machinery, protocol-agnostic and shared by both engines (every
//! [`crate::StateKernel`] owns one):
//!
//! * **Retired-lock lists** — per item, the ordered chain of write locks
//!   released early, each entry carrying the owner and its staged value.
//!   The chain order *is* the required install order: each live entry
//!   will bump the item's committed version by exactly one, so the
//!   predicted version of the latest dirty value is
//!   `committed_version + chain_len` and stays correct as earlier chain
//!   members commit.
//! * **Commit-dependency graph** — when the engine grants a lock on an
//!   item with a non-empty retired chain it registers a dependency of
//!   the requester on the *latest* retired owner (transitively ordering
//!   it after the whole chain). A transaction with outstanding
//!   dependencies is held at the **commit gate** until they drain —
//!   which is what makes dirty reads recoverable: nobody commits a
//!   value they read from a transaction that can still abort.
//! * **Cascading aborts** — when a transaction with dependents aborts,
//!   [`DepTracker::on_abort`] hands the transitive closure of its
//!   dependents back to the engine, which aborts each through the
//!   ordinary abort path; every surfaced instance is detached from the
//!   graph as it is collected, so each cascades exactly once even when
//!   it is reachable through several dependency paths.
//!
//! The tracker is pure bookkeeping: it never decides anything (the
//! protocol does) and never touches locks (the engine does).

use rtdb_types::{InstanceId, ItemId, Value};
use std::collections::BTreeMap;

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
    /// Cascading aborts through the dependency graph.
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
pub struct RetiredWrite {
    /// The transaction that released the write lock before commit.
    pub owner: InstanceId,
    /// Its staged (dirty, uncommitted) value for the item.
    pub value: Value,
}

/// Retired-lock lists plus the commit-dependency graph (module docs).
#[derive(Clone, Debug, Default)]
pub struct DepTracker {
    /// item → retired writes in retire (= required install) order.
    retired: BTreeMap<ItemId, Vec<RetiredWrite>>,
    /// owner → items it currently has retired entries on (reverse index).
    retired_by: BTreeMap<InstanceId, Vec<ItemId>>,
    /// dependent → the instances it must wait for at the commit gate.
    waits_on: BTreeMap<InstanceId, Vec<InstanceId>>,
    /// instance → dependents gated on (or ordered after) it.
    dependents: BTreeMap<InstanceId, Vec<InstanceId>>,
}

/// Insert `x` into the ascending `v`; `false` if it was already there.
pub(crate) fn insert_sorted<T: Ord + Copy>(v: &mut Vec<T>, x: T) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

fn remove_sorted<T: Ord>(v: &mut Vec<T>, x: &T) {
    if let Ok(i) = v.binary_search(x) {
        v.remove(i);
    }
}

impl DepTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if nothing is retired and nobody is gated (the steady state
    /// for protocols that never retire).
    pub fn is_empty(&self) -> bool {
        self.retired.is_empty() && self.waits_on.is_empty()
    }

    /// Record an early release of `owner`'s write lock on `item` with its
    /// staged `value`. The entry joins the end of the item's chain.
    pub fn retire(&mut self, owner: InstanceId, item: ItemId, value: Value) {
        let chain = self.retired.entry(item).or_default();
        debug_assert!(
            chain.iter().all(|e| e.owner != owner),
            "{owner} retired {item:?} twice"
        );
        chain.push(RetiredWrite { owner, value });
        insert_sorted(self.retired_by.entry(owner).or_default(), item);
    }

    /// The latest live retired write on `item`, with the chain length
    /// (the latest entry's 1-based position): the dirty value a new
    /// locker observes, predicted to commit at
    /// `committed_version + chain_len`.
    pub fn latest_retired(&self, item: ItemId) -> Option<(RetiredWrite, usize)> {
        let chain = self.retired.get(&item)?;
        chain.last().map(|&e| (e, chain.len()))
    }

    /// Register that `dependent` must commit after `on` (deduplicated;
    /// self-dependencies ignored).
    pub fn add_dep(&mut self, dependent: InstanceId, on: InstanceId) {
        if dependent == on {
            return;
        }
        if insert_sorted(self.waits_on.entry(dependent).or_default(), on) {
            insert_sorted(self.dependents.entry(on).or_default(), dependent);
        }
    }

    /// The instances `who` is still gated on (empty ⇒ free to commit).
    pub fn deps_of(&self, who: InstanceId) -> &[InstanceId] {
        self.waits_on.get(&who).map_or(&[], Vec::as_slice)
    }

    /// True if `who` has outstanding commit dependencies.
    pub fn has_deps(&self, who: InstanceId) -> bool {
        !self.deps_of(who).is_empty()
    }

    /// The instances currently depending on `who`.
    #[cfg(test)]
    fn dependents_of(&self, who: InstanceId) -> &[InstanceId] {
        self.dependents.get(&who).map_or(&[], Vec::as_slice)
    }

    /// `who` committed: drop its retired entries (the values are now the
    /// committed ones), release its dependents' edges, and return the
    /// dependents whose last dependency just drained — the engine lets
    /// those through the commit gate.
    pub fn on_commit(&mut self, who: InstanceId) -> Vec<InstanceId> {
        self.drop_retired(who);
        debug_assert!(
            !self.waits_on.contains_key(&who),
            "{who} committed with outstanding dependencies"
        );
        let mut drained = Vec::new();
        if let Some(deps) = self.dependents.remove(&who) {
            for d in deps {
                if let Some(waits) = self.waits_on.get_mut(&d) {
                    remove_sorted(waits, &who);
                    if waits.is_empty() {
                        self.waits_on.remove(&d);
                        drained.push(d);
                    }
                }
            }
        }
        drained
    }

    /// `who` aborted: remove it from the graph entirely (retired entries,
    /// its own waits, its edge in others' dependent lists) and return the
    /// **transitive closure** of its dependents, in BFS order — the
    /// engine must abort each of them (cascading). Every returned
    /// instance is detached from the graph as it is collected, so a
    /// dependent reachable through two paths (C depending on both A and
    /// B, B depending on A) is surfaced exactly once, and the engine's
    /// abort path re-entering here for a cascade victim finds nothing
    /// left to do.
    pub fn on_abort(&mut self, who: InstanceId) -> Vec<InstanceId> {
        self.drop_retired(who);
        self.unhook_waits(who);
        let mut cascade: Vec<InstanceId> = Vec::new();
        let mut frontier = self.dependents.remove(&who).unwrap_or_default();
        let mut i = 0;
        while i < frontier.len() {
            let d = frontier[i];
            i += 1;
            if cascade.contains(&d) {
                continue;
            }
            self.drop_retired(d);
            self.unhook_waits(d);
            if let Some(next) = self.dependents.remove(&d) {
                frontier.extend(next);
            }
            cascade.push(d);
        }
        cascade
    }

    /// Remove `who`'s outstanding waits and its entry in the dependent
    /// lists of the instances it waited on.
    fn unhook_waits(&mut self, who: InstanceId) {
        if let Some(waits) = self.waits_on.remove(&who) {
            for w in waits {
                if let Some(deps) = self.dependents.get_mut(&w) {
                    remove_sorted(deps, &who);
                    if deps.is_empty() {
                        self.dependents.remove(&w);
                    }
                }
            }
        }
    }

    fn drop_retired(&mut self, who: InstanceId) {
        if let Some(items) = self.retired_by.remove(&who) {
            for item in items {
                if let Some(chain) = self.retired.get_mut(&item) {
                    chain.retain(|e| e.owner != who);
                    if chain.is_empty() {
                        self.retired.remove(&item);
                    }
                }
            }
        }
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
    fn retired_chain_orders_and_predicts_versions() {
        let mut d = DepTracker::new();
        assert!(d.latest_retired(ItemId(0)).is_none());
        d.retire(i(0), ItemId(0), Value(10));
        d.retire(i(1), ItemId(0), Value(11));
        let (latest, len) = d.latest_retired(ItemId(0)).unwrap();
        assert_eq!(latest.owner, i(1));
        assert_eq!(latest.value, Value(11));
        assert_eq!(len, 2);
        // The earliest chain member commits: the latest entry's position
        // shrinks by one — matching the +1 its install added to the
        // committed version, so `version + len` is invariant.
        d.on_commit(i(0));
        let (latest, len) = d.latest_retired(ItemId(0)).unwrap();
        assert_eq!(latest.owner, i(1));
        assert_eq!(len, 1);
        d.on_commit(i(1));
        assert!(d.latest_retired(ItemId(0)).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn commit_drains_dependents_exactly_when_last_dep_clears() {
        let mut d = DepTracker::new();
        d.add_dep(i(2), i(0));
        d.add_dep(i(2), i(1));
        d.add_dep(i(2), i(0)); // dedup
        assert!(d.has_deps(i(2)));
        assert_eq!(d.on_commit(i(0)), Vec::<InstanceId>::new());
        assert!(d.has_deps(i(2)));
        assert_eq!(d.on_commit(i(1)), vec![i(2)]);
        assert!(!d.has_deps(i(2)));
    }

    #[test]
    fn abort_cascade_surfaces_each_dependent_exactly_once() {
        let mut d = DepTracker::new();
        d.retire(i(0), ItemId(3), Value(7));
        d.add_dep(i(1), i(0));
        d.add_dep(i(2), i(0));
        d.add_dep(i(2), i(1)); // diamond: 2 reachable via 0 and via 1
        let cascade = d.on_abort(i(0));
        assert_eq!(cascade, vec![i(1), i(2)]);
        assert!(d.latest_retired(ItemId(3)).is_none());
        // The engine's abort path re-enters for each cascade victim; the
        // graph has already been cleared, so nothing surfaces twice.
        assert!(d.on_abort(i(1)).is_empty());
        assert!(d.on_abort(i(2)).is_empty());
        assert!(d.is_empty());
    }

    #[test]
    fn abort_of_dependent_unhooks_it_from_its_sources() {
        let mut d = DepTracker::new();
        d.add_dep(i(1), i(0));
        assert_eq!(d.dependents_of(i(0)), &[i(1)]);
        let cascade = d.on_abort(i(1));
        assert!(cascade.is_empty());
        assert!(d.dependents_of(i(0)).is_empty());
        // i(0)'s later commit drains nobody.
        assert!(d.on_commit(i(0)).is_empty());
        assert!(d.is_empty());
    }

    #[test]
    fn self_dependency_is_ignored() {
        let mut d = DepTracker::new();
        d.add_dep(i(0), i(0));
        assert!(!d.has_deps(i(0)));
    }

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
