//! Static and dynamic priority ceilings.
//!
//! Static ceilings are fixed a priori by the transaction set:
//!
//! * `Wceil(x)` / `HPW(x)` — the priority of the highest-priority
//!   transaction that may **write** `x` (the only static ceiling PCP-DA
//!   needs, paper §4.2);
//! * `Aceil(x)` — the priority of the highest-priority transaction that may
//!   read **or** write `x` (RW-PCP and the original PCP).
//!
//! Dynamic system ceilings are computed from the current lock table:
//!
//! * PCP-DA: `Sysceil_i` = max `Wceil(x)` over items **read-locked** by
//!   transactions other than `T_i` (write locks raise no ceiling);
//! * RW-PCP: `Sysceil_i` = max `RWceil(x)` over items locked by others,
//!   where a write lock contributes `Aceil(x)` and a read lock contributes
//!   `Wceil(x)` (the run-time `RWceil`);
//! * PCP: `Sysceil_i` = max `Aceil(x)` over items locked by others.
//!
//! When the lock table carries a [`crate::CeilingIndex`] for the queried
//! flavor ([`crate::LockTable::with_index`], or
//! [`crate::LockTable::with_flavor`] for the one flavor the running
//! protocol reads), the `*_sysceil` queries are O(1) incremental lookups;
//! the from-scratch scans below answer for any other flavor and remain
//! the index's equivalence oracles, `assert_eq!`-checked on every query in
//! debug builds and, under the `oracle-checks` feature, in release builds
//! too.
//!
//! # Layout
//!
//! Everything static is dense and computed once in [`CeilingTable::new`]:
//! the two ceilings of an item by `ItemId::index()`, each with its *rank*
//! among the set's distinct ceiling values (priorities may be any `u32`;
//! ranks are `0..levels` and index the [`crate::CeilingIndex`] directly),
//! and every template's read and write set as a sorted slice. The table
//! is shared with the index behind one `Arc`, so neither copies it.

use crate::ceiling_index::CeilingFlavor;
use crate::locks::LockTable;
use rtdb_types::{Ceiling, InstanceId, ItemId, LockMode, TransactionSet, TxnId};
use std::sync::Arc;

/// Rank of the dummy ceiling: no level.
pub(crate) const NO_LEVEL: u32 = u32::MAX;

/// The static ceilings of one item and their ranks in [`Statics::levels`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct ItemCeilings {
    pub(crate) wceil: Ceiling,
    pub(crate) aceil: Ceiling,
    pub(crate) wrank: u32,
    pub(crate) arank: u32,
}

impl ItemCeilings {
    const NONE: ItemCeilings = ItemCeilings {
        wceil: Ceiling::Dummy,
        aceil: Ceiling::Dummy,
        wrank: NO_LEVEL,
        arank: NO_LEVEL,
    };
}

/// What [`CeilingTable`] and [`crate::CeilingIndex`] share.
#[derive(Debug)]
pub(crate) struct Statics {
    /// By `ItemId::index()`; items past the end have dummy ceilings.
    items: Vec<ItemCeilings>,
    /// The distinct non-dummy ceiling values, ascending: the value of
    /// rank `r` is `levels[r]`.
    pub(crate) levels: Vec<Ceiling>,
    /// Per template, sorted.
    read_sets: Vec<Vec<ItemId>>,
    /// Per template, sorted.
    write_sets: Vec<Vec<ItemId>>,
}

impl Statics {
    #[inline]
    pub(crate) fn item(&self, item: ItemId) -> ItemCeilings {
        self.items
            .get(item.index())
            .copied()
            .unwrap_or(ItemCeilings::NONE)
    }
}

/// Precomputed static ceilings and per-template read and write sets.
#[derive(Clone, Debug)]
pub struct CeilingTable {
    pub(crate) statics: Arc<Statics>,
}

/// The holders of a [`SysCeil`]: distinct instances in ascending id order,
/// a slice through `Deref`. Live instances are bounded by the engine's
/// concurrency (worker threads; a handful in the simulator), so up to
/// [`Holders::INLINE`] of them sit in place and building a `SysCeil`
/// allocates only beyond that.
#[derive(Clone, Debug)]
pub struct Holders {
    /// Occupied prefix of `inline`; unused once `spill` is in use.
    len: usize,
    inline: [InstanceId; Self::INLINE],
    /// Holds *every* element as soon as there are more than `INLINE`.
    spill: Vec<InstanceId>,
}

impl Holders {
    /// Holders stored without a heap allocation.
    pub const INLINE: usize = 4;

    /// Add `id`, keeping the order; a no-op if present.
    pub fn insert(&mut self, id: InstanceId) {
        let Err(pos) = self.binary_search(&id) else {
            return;
        };
        if self.spill.is_empty() && self.len < Self::INLINE {
            self.inline.copy_within(pos..self.len, pos + 1);
            self.inline[pos] = id;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.insert(pos, id);
        }
    }

    /// Remove every holder.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl Default for Holders {
    fn default() -> Self {
        Holders {
            len: 0,
            inline: [InstanceId::first(TxnId(0)); Self::INLINE],
            spill: Vec::new(),
        }
    }
}

impl std::ops::Deref for Holders {
    type Target = [InstanceId];

    #[inline]
    fn deref(&self) -> &[InstanceId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl PartialEq for Holders {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Holders {}

impl Extend<InstanceId> for Holders {
    fn extend<I: IntoIterator<Item = InstanceId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl FromIterator<InstanceId> for Holders {
    fn from_iter<I: IntoIterator<Item = InstanceId>>(iter: I) -> Self {
        let mut holders = Holders::default();
        holders.extend(iter);
        holders
    }
}

/// A dynamic system ceiling together with the instances that hold locks at
/// that level — the candidates for priority inheritance (`T*` in the
/// paper, unique under PCP-DA's invariants).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SysCeil {
    /// The ceiling value.
    pub ceiling: Ceiling,
    /// Holders of the item(s) whose ceiling equals the system ceiling.
    /// Empty iff `ceiling` is dummy.
    pub holders: Holders,
}

impl SysCeil {
    /// The bottom ceiling: nothing relevant is locked.
    pub fn dummy() -> Self {
        Self::default()
    }
}

/// True when the equivalence oracles should run (debug builds, or any
/// build with the `oracle-checks` feature).
#[inline]
fn oracle_checks_enabled() -> bool {
    cfg!(debug_assertions) || cfg!(feature = "oracle-checks")
}

impl CeilingTable {
    /// Precompute ceilings for a transaction set.
    pub fn new(set: &TransactionSet) -> Self {
        let mut items: Vec<ItemCeilings> = Vec::new();
        for t in set.templates() {
            let p = set.priority_of(t.id).as_ceiling();
            for (item, mode) in t.steps.iter().filter_map(|s| s.op.access()) {
                if item.index() >= items.len() {
                    items.resize(item.index() + 1, ItemCeilings::NONE);
                }
                let c = &mut items[item.index()];
                c.aceil = c.aceil.max(p);
                if mode == LockMode::Write {
                    c.wceil = c.wceil.max(p);
                }
            }
        }
        let mut levels: Vec<Ceiling> = items.iter().flat_map(|c| [c.wceil, c.aceil]).collect();
        levels.retain(|c| !c.is_dummy());
        levels.sort_unstable();
        levels.dedup();
        let rank = |c: Ceiling| levels.binary_search(&c).map_or(NO_LEVEL, |r| r as u32);
        for c in &mut items {
            c.wrank = rank(c.wceil);
            c.arank = rank(c.aceil);
        }
        let templates = set.templates().iter();
        CeilingTable {
            statics: Arc::new(Statics {
                items,
                levels,
                read_sets: templates
                    .clone()
                    .map(|t| t.read_set().into_iter().collect())
                    .collect(),
                write_sets: templates
                    .map(|t| t.write_set().into_iter().collect())
                    .collect(),
            }),
        }
    }

    /// `Wceil(x)` / `HPW(x)`.
    #[inline]
    pub fn wceil(&self, item: ItemId) -> Ceiling {
        self.statics.item(item).wceil
    }

    /// `Aceil(x)`.
    #[inline]
    pub fn aceil(&self, item: ItemId) -> Ceiling {
        self.statics.item(item).aceil
    }

    /// Every item some template accesses (ascending).
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.statics
            .items
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.aceil.is_dummy())
            .map(|(i, _)| ItemId(i as u32))
    }

    /// Static `WriteSet(T)` of a template, sorted.
    #[inline]
    pub fn write_set(&self, txn: TxnId) -> &[ItemId] {
        &self.statics.write_sets[txn.index()]
    }

    /// The items a template may read, sorted (the upper bound of
    /// `DataRead(T)`).
    #[inline]
    pub fn read_set(&self, txn: TxnId) -> &[ItemId] {
        &self.statics.read_sets[txn.index()]
    }

    /// True if template `txn` may write `item`.
    #[inline]
    pub fn may_write(&self, txn: TxnId, item: ItemId) -> bool {
        self.write_set(txn).binary_search(&item).is_ok()
    }

    /// True if template `txn` may read `item`.
    #[inline]
    pub fn may_read(&self, txn: TxnId, item: ItemId) -> bool {
        self.read_set(txn).binary_search(&item).is_ok()
    }

    /// `Sysceil` of `flavor` with respect to `who`: from the index when
    /// the table maintains that flavor (checked against the scan when the
    /// oracles are on), from the scan otherwise.
    fn sysceil(&self, flavor: CeilingFlavor, locks: &LockTable, who: InstanceId) -> SysCeil {
        let scan = || match flavor {
            CeilingFlavor::PcpDa => self.pcpda_sysceil_scan(locks, who),
            CeilingFlavor::RwPcp => self.rwpcp_sysceil_scan(locks, who),
            CeilingFlavor::Pcp => self.pcp_sysceil_scan(locks, who),
        };
        let Some(fast) = locks.index().and_then(|ix| ix.sysceil(flavor, who)) else {
            return scan();
        };
        if oracle_checks_enabled() {
            assert_eq!(
                fast,
                scan(),
                "CeilingIndex diverged from the {flavor:?} Sysceil scan (who={who})"
            );
        }
        fast
    }

    /// PCP-DA `Sysceil` with respect to `who`: the highest `Wceil(x)` over
    /// all items read-locked by other transactions, with the holders of
    /// the ceiling item(s) (`T*`).
    pub fn pcpda_sysceil(&self, locks: &LockTable, who: InstanceId) -> SysCeil {
        self.sysceil(CeilingFlavor::PcpDa, locks, who)
    }

    /// RW-PCP `Sysceil` with respect to `who`: the highest `RWceil(x)` over
    /// all items locked by other transactions.
    ///
    /// `RWceil` is determined at run time by the lock modes present: a
    /// write lock contributes `Aceil(x)`; a read lock contributes
    /// `Wceil(x)`. If both modes are present (an upgrade in progress) the
    /// write-mode ceiling dominates, since `Aceil ≥ Wceil`.
    pub fn rwpcp_sysceil(&self, locks: &LockTable, who: InstanceId) -> SysCeil {
        self.sysceil(CeilingFlavor::RwPcp, locks, who)
    }

    /// Original-PCP `Sysceil` with respect to `who`: the highest `Aceil(x)`
    /// over all items locked (in any mode) by other transactions.
    pub fn pcp_sysceil(&self, locks: &LockTable, who: InstanceId) -> SysCeil {
        self.sysceil(CeilingFlavor::Pcp, locks, who)
    }

    /// From-scratch PCP-DA `Sysceil` — the [`Self::pcpda_sysceil`] oracle.
    pub fn pcpda_sysceil_scan(&self, locks: &LockTable, who: InstanceId) -> SysCeil {
        let mut best = SysCeil::dummy();
        for (item, holders) in locks.read_locked_by_others(who) {
            let c = self.wceil(item);
            if c.is_dummy() {
                continue;
            }
            match c.cmp(&best.ceiling) {
                std::cmp::Ordering::Greater => {
                    best.ceiling = c;
                    best.holders = holders.collect();
                }
                std::cmp::Ordering::Equal => best.holders.extend(holders),
                std::cmp::Ordering::Less => {}
            }
        }
        best
    }

    /// From-scratch RW-PCP `Sysceil` — the [`Self::rwpcp_sysceil`] oracle.
    pub fn rwpcp_sysceil_scan(&self, locks: &LockTable, who: InstanceId) -> SysCeil {
        let mut best = SysCeil::dummy();
        for item in locks.locked_item_ids() {
            self.consider(
                &mut best,
                self.wceil(item),
                locks.readers_other_than(item, who),
            );
            self.consider(
                &mut best,
                self.aceil(item),
                locks.writers_other_than(item, who),
            );
        }
        best
    }

    /// From-scratch original-PCP `Sysceil` — the [`Self::pcp_sysceil`]
    /// oracle.
    pub fn pcp_sysceil_scan(&self, locks: &LockTable, who: InstanceId) -> SysCeil {
        let mut best = SysCeil::dummy();
        for item in locks.locked_item_ids() {
            let c = self.aceil(item);
            self.consider(
                &mut best,
                c,
                locks
                    .readers_other_than(item, who)
                    .chain(locks.writers_other_than(item, who)),
            );
        }
        best
    }

    /// Fold one (ceiling, holders) candidate into the running maximum.
    /// Ignores empty holder sets and dummy ceilings.
    fn consider(&self, best: &mut SysCeil, c: Ceiling, holders: impl Iterator<Item = InstanceId>) {
        if c.is_dummy() || c < best.ceiling {
            return;
        }
        let mut holders = holders.peekable();
        if holders.peek().is_none() {
            return;
        }
        if c > best.ceiling {
            best.ceiling = c;
            best.holders.clear();
        }
        best.holders.extend(holders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_types::{LockMode, SetBuilder, Step, TransactionTemplate};

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    /// Paper Example 4 set: T1: R(x); T2: W(y); T3: R(z),W(z); T4: R(y),W(x).
    fn set() -> TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                30,
                vec![Step::read(ItemId(0), 2)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                30,
                vec![Step::write(ItemId(1), 2)],
            ))
            .with(TransactionTemplate::new(
                "T3",
                30,
                vec![Step::read(ItemId(2), 1), Step::write(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new(
                "T4",
                30,
                vec![
                    Step::read(ItemId(1), 1),
                    Step::write(ItemId(0), 1),
                    Step::compute(3),
                ],
            ))
            .build()
            .unwrap()
    }

    /// Every ceiling test runs twice: on a plain table (scan path) and on
    /// an indexed table (incremental path + oracle assertion).
    fn tables(set: &TransactionSet) -> [(&'static str, CeilingTable, LockTable); 2] {
        let plain = CeilingTable::new(set);
        let indexed = CeilingTable::new(set);
        let lt_indexed = LockTable::with_index(&indexed);
        [
            ("scan", plain, LockTable::new()),
            ("index", indexed, lt_indexed),
        ]
    }

    #[test]
    fn static_ceilings_match_example4() {
        let s = set();
        let c = CeilingTable::new(&s);
        assert_eq!(c.wceil(ItemId(1)), s.priority_of(TxnId(1)).as_ceiling()); // Wceil(y)=P2
        assert_eq!(c.wceil(ItemId(2)), s.priority_of(TxnId(2)).as_ceiling()); // Wceil(z)=P3
        assert_eq!(c.wceil(ItemId(0)), s.priority_of(TxnId(3)).as_ceiling()); // Wceil(x)=P4
        assert_eq!(c.aceil(ItemId(0)), s.priority_of(TxnId(0)).as_ceiling()); // Aceil(x)=P1
        assert!(c.may_write(TxnId(3), ItemId(0)));
        assert!(!c.may_write(TxnId(0), ItemId(0)));
        assert_eq!(c.items().count(), 3);
    }

    #[test]
    fn pcpda_sysceil_counts_only_read_locks() {
        let s = set();
        for (path, c, mut lt) in tables(&s) {
            // T4 write-locks x: raises nothing under PCP-DA.
            lt.grant(i(3), ItemId(0), LockMode::Write);
            assert_eq!(c.pcpda_sysceil(&lt, i(0)).ceiling, Ceiling::Dummy, "{path}");

            // T4 read-locks y: Sysceil = Wceil(y) = P2 for everyone else.
            lt.grant(i(3), ItemId(1), LockMode::Read);
            let sc = c.pcpda_sysceil(&lt, i(2));
            assert_eq!(sc.ceiling, s.priority_of(TxnId(1)).as_ceiling(), "{path}");
            assert_eq!(sc.holders, [i(3)].into_iter().collect(), "{path}");

            // From T4's own perspective the ceiling is still dummy.
            assert_eq!(c.pcpda_sysceil(&lt, i(3)).ceiling, Ceiling::Dummy, "{path}");
        }
    }

    #[test]
    fn rwpcp_sysceil_uses_rwceil() {
        let s = set();
        for (path, c, mut lt) in tables(&s) {
            // T4 read-locks y: RWceil(y) = Wceil(y) = P2.
            lt.grant(i(3), ItemId(1), LockMode::Read);
            assert_eq!(
                c.rwpcp_sysceil(&lt, i(2)).ceiling,
                s.priority_of(TxnId(1)).as_ceiling(),
                "{path}"
            );

            // T4 additionally write-locks x: RWceil(x) = Aceil(x) = P1 dominates.
            lt.grant(i(3), ItemId(0), LockMode::Write);
            let sc = c.rwpcp_sysceil(&lt, i(0));
            assert_eq!(sc.ceiling, s.priority_of(TxnId(0)).as_ceiling(), "{path}");
            assert_eq!(sc.holders, [i(3)].into_iter().collect(), "{path}");
        }
    }

    #[test]
    fn pcp_sysceil_uses_aceil_for_reads_too() {
        let s = set();
        for (path, c, mut lt) in tables(&s) {
            lt.grant(i(3), ItemId(1), LockMode::Read); // y: Aceil(y)=P2
            assert_eq!(
                c.pcp_sysceil(&lt, i(0)).ceiling,
                s.priority_of(TxnId(1)).as_ceiling(),
                "{path}"
            );
        }
    }

    #[test]
    fn ties_collect_all_holders() {
        let s = set();
        for (path, c, mut lt) in tables(&s) {
            // Two different transactions read-lock items with equal Wceil:
            // construct via z (Wceil=P3) read-locked by T1 and T2.
            lt.grant(i(0), ItemId(2), LockMode::Read);
            lt.grant(i(1), ItemId(2), LockMode::Read);
            let sc = c.pcpda_sysceil(&lt, i(3));
            assert_eq!(sc.ceiling, s.priority_of(TxnId(2)).as_ceiling(), "{path}");
            assert_eq!(sc.holders.len(), 2, "{path}");
        }
    }

    #[test]
    fn upgrade_counts_once_under_pcp() {
        let s = set();
        for (path, c, mut lt) in tables(&s) {
            lt.grant(i(2), ItemId(2), LockMode::Read);
            lt.grant(i(2), ItemId(2), LockMode::Write); // upgrade
            let sc = c.pcp_sysceil(&lt, i(0));
            assert_eq!(sc.ceiling, c.aceil(ItemId(2)), "{path}");
            assert_eq!(sc.holders, [i(2)].into_iter().collect(), "{path}");
            // Releasing one mode keeps the holder's contribution alive.
            lt.release(i(2), ItemId(2), LockMode::Write);
            assert_eq!(
                c.pcp_sysceil(&lt, i(0)).ceiling,
                c.aceil(ItemId(2)),
                "{path}"
            );
            lt.release(i(2), ItemId(2), LockMode::Read);
            assert_eq!(c.pcp_sysceil(&lt, i(0)), SysCeil::dummy(), "{path}");
        }
    }

    #[test]
    fn release_all_unwinds_the_index() {
        let s = set();
        for (path, c, mut lt) in tables(&s) {
            lt.grant(i(3), ItemId(1), LockMode::Read);
            lt.grant(i(3), ItemId(0), LockMode::Write);
            lt.grant(i(2), ItemId(2), LockMode::Read);
            assert_ne!(c.rwpcp_sysceil(&lt, i(0)), SysCeil::dummy(), "{path}");
            lt.release_all(i(3));
            // Only T3's read of z remains.
            let sc = c.pcpda_sysceil(&lt, i(0));
            assert_eq!(sc.holders, [i(2)].into_iter().collect(), "{path}");
            lt.release_all(i(2));
            assert_eq!(c.rwpcp_sysceil(&lt, i(0)), SysCeil::dummy(), "{path}");
        }
    }

    #[test]
    fn unknown_items_have_dummy_ceilings() {
        let c = CeilingTable::new(&set());
        assert!(c.wceil(ItemId(99)).is_dummy());
        assert!(c.aceil(ItemId(99)).is_dummy());
    }
}
