//! Incremental system-ceiling index.
//!
//! The scan-based `Sysceil` computations in [`crate::ceilings`] walk the
//! whole lock table on every query — O(items × holders) work that sits on
//! the hottest path of every protocol decision. This module maintains the
//! same quantities *incrementally*: one `FlavorIndex` per protocol
//! flavor (PCP-DA read ceilings, RW-PCP mode-dependent ceilings, PCP
//! any-mode ceilings), each a multiset of active per-lock ceiling
//! contributions, updated on lock acquire / release / upgrade and queried
//! in O(1) for `Sysceil` *with respect to `who`*.
//!
//! # Contribution model
//!
//! Every held lock contributes `(level, holder)` pairs:
//!
//! * **PCP-DA** — a read lock on `x` contributes `Wceil(x)`; write locks
//!   contribute nothing (paper §4.2);
//! * **RW-PCP** — a read lock contributes `Wceil(x)`, a write lock
//!   contributes `Aceil(x)` (the run-time `RWceil`);
//! * **PCP** — each *distinct* holder of `x` contributes `Aceil(x)` once,
//!   regardless of mode (an upgrade does not double-count).
//!
//! Dummy-ceiling levels are never inserted, mirroring the scans.
//!
//! `Sysceil_who` is then the maximum level over contributions whose
//! holder differs from `who`, together with every distinct holder at that
//! level other than `who` (the paper's `T*` candidates).
//!
//! # Level query and `T*` lookup
//!
//! Most readers of `Sysceil` need only its level: LC2 (`P_i > Sysceil_i`),
//! the RW-PCP and PCP grant test, PCP-DA's clause-(C) write guard and the
//! trace's ceiling sample. [`CeilingIndex::sysceil_level`] answers them
//! from the cached top levels alone and builds nothing. Only the paths
//! that read holders — LC3/LC4's and the commit-order guard's tests on
//! `T*`, and a ceiling denial's blockers — call [`CeilingIndex::sysceil`],
//! which also copies the level's holders into a [`Holders`] list.
//!
//! # Layout
//!
//! A ceiling is a priority and a priority may be any `u32`, but a set has
//! at most as many distinct ceiling values as templates: a flavor is a
//! dense `Vec` of levels indexed by the ceiling's *rank* among those
//! values (precomputed per item by [`CeilingTable`]), plus one occupancy
//! bit per level for "highest occupied level below `r`". A level is a
//! small `(holder, count)` vector sorted by instance id — live instances
//! are bounded by the engine's concurrency — whose capacity survives
//! emptying, so after warm-up no transition allocates. Holders come back
//! in ascending id order, the order the scans (and the tree this
//! replaced) produce.
//!
//! Only the flavors asked for are maintained
//! ([`crate::LockTable::with_flavor`]): a protocol reads one, and 2PL
//! none. A query for a flavor the table does not maintain is answered by
//! its scan, so a wrong declaration costs time, never correctness.
//!
//! # O(1) exclusion without rescans
//!
//! The subtle case is a query by the very instance that holds the top of
//! the multiset. Each flavor therefore caches **two ceilings with
//! provably different holder sets**: the top level, and — only when the
//! top level has a *single* distinct holder `a` — the highest level that
//! contains some holder other than `a`. A query by `who ≠ a` answers with
//! the top; a query by `a` answers with the second entry, whose holder
//! set contains a non-`a` instance by construction. Excluding `who`'s own
//! contribution therefore never forces a walk down the levels.
//!
//! The cache is refreshed on update; the refresh walks past consecutive
//! top levels held solely by one instance, a prefix bounded by the number
//! of distinct ceiling values among that instance's own locks (in
//! protocol-reachable states: a handful).
//!
//! # Equivalence oracles
//!
//! The scan-based functions remain in [`crate::ceilings`] as from-scratch
//! oracles; [`crate::CeilingTable::pcpda_sysceil`],
//! [`crate::CeilingTable::pcpda_sysceil_level`] and their RW-PCP and PCP
//! twins `assert_eq!` index against scan on every query in debug builds
//! (and in release builds under the `oracle-checks` feature).

use crate::ceilings::{CeilingTable, Holders, Statics, SysCeil, NO_LEVEL};
use rtdb_types::{Ceiling, InstanceId, ItemId, LockMode};
use std::sync::Arc;

/// Which `Sysceil` a protocol reads (see the contribution model above).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CeilingFlavor {
    /// Read locks raise `Wceil(x)` (PCP-DA, Naive-DA).
    PcpDa,
    /// Read locks raise `Wceil(x)`, write locks `Aceil(x)` (RW-PCP).
    RwPcp,
    /// Any lock raises `Aceil(x)` (PCP, CCP).
    Pcp,
}

impl CeilingFlavor {
    /// Every flavor.
    pub const ALL: [CeilingFlavor; 3] = [
        CeilingFlavor::PcpDa,
        CeilingFlavor::RwPcp,
        CeilingFlavor::Pcp,
    ];
}

/// The cached top-2 ceilings with disjoint holder sets (see module docs),
/// as ranks.
#[derive(Clone, Copy, Debug)]
struct TopCache {
    /// Highest occupied level.
    top: usize,
    /// `Some(a)` iff `a` is the *single* distinct holder at `top`.
    top_sole: Option<InstanceId>,
    /// Highest level holding someone other than `a` (tracked only when
    /// `top_sole` is set; `None` = no such level).
    second: Option<usize>,
}

/// One occupancy bit per dense level, searched downward a word at a time
/// with `leading_zeros`: "the highest non-empty level below `end`" for
/// anything kept as a `Vec` of levels indexed by rank (the ceiling
/// index's flavors, the runtime's admission lanes).
#[derive(Clone, Debug)]
pub struct LevelMask {
    /// Bit `r % 64` of word `r / 64` is set iff level `r` is occupied.
    words: Vec<u64>,
}

impl LevelMask {
    /// A mask over `levels` levels, all empty.
    pub fn new(levels: usize) -> Self {
        LevelMask {
            words: vec![0; levels.div_ceil(64)],
        }
    }

    /// Mark level `r` occupied.
    #[inline]
    pub fn set(&mut self, r: usize) {
        self.words[r / 64] |= 1 << (r % 64);
    }

    /// Mark level `r` empty.
    #[inline]
    pub fn clear(&mut self, r: usize) {
        self.words[r / 64] &= !(1 << (r % 64));
    }

    /// The highest occupied level below `end`.
    pub fn highest_below(&self, end: usize) -> Option<usize> {
        let (mut word, bit) = (end / 64, end % 64);
        // Bits `0..bit` of the word `end` falls in, whole words below.
        let mut bits = match self.words.get(word) {
            Some(w) if bit > 0 => w & (u64::MAX >> (64 - bit)),
            _ => 0,
        };
        loop {
            if bits != 0 {
                return Some(word * 64 + 63 - bits.leading_zeros() as usize);
            }
            word = word.checked_sub(1)?;
            bits = self.words[word];
        }
    }
}

/// One protocol flavor's multiset of `(level, holder)` contributions.
#[derive(Clone, Debug)]
struct FlavorIndex {
    /// By rank: the distinct holders at the level with their contribution
    /// counts, ascending by id.
    levels: Vec<Vec<(InstanceId, u32)>>,
    /// Which `levels` are non-empty.
    occupied: LevelMask,
    cache: Option<TopCache>,
}

impl FlavorIndex {
    fn new(n_levels: usize) -> Self {
        FlavorIndex {
            levels: vec![Vec::new(); n_levels],
            occupied: LevelMask::new(n_levels),
            cache: None,
        }
    }

    fn add(&mut self, rank: u32, holder: InstanceId) {
        if rank == NO_LEVEL {
            return;
        }
        let rank = rank as usize;
        let level = &mut self.levels[rank];
        match level.binary_search_by_key(&holder, |&(h, _)| h) {
            Ok(i) => level[i].1 += 1,
            Err(i) => level.insert(i, (holder, 1)),
        }
        self.occupied.set(rank);
        self.refresh_cache();
    }

    fn remove(&mut self, rank: u32, holder: InstanceId) {
        if rank == NO_LEVEL {
            return;
        }
        let rank = rank as usize;
        let level = &mut self.levels[rank];
        let i = level
            .binary_search_by_key(&holder, |&(h, _)| h)
            .expect("removing a contribution that was never added");
        level[i].1 -= 1;
        if level[i].1 == 0 {
            level.remove(i);
            if level.is_empty() {
                self.occupied.clear(rank);
            }
        }
        self.refresh_cache();
    }

    fn refresh_cache(&mut self) {
        let Some(top) = self.occupied.highest_below(self.levels.len()) else {
            self.cache = None;
            return;
        };
        let (top_sole, second) = match self.levels[top][..] {
            [(a, _)] => {
                let mut below = self.occupied.highest_below(top);
                while let Some(r) = below {
                    if !matches!(self.levels[r][..], [(h, _)] if h == a) {
                        break;
                    }
                    below = self.occupied.highest_below(r);
                }
                (Some(a), below)
            }
            _ => (None, None),
        };
        self.cache = Some(TopCache {
            top,
            top_sole,
            second,
        });
    }

    /// The level of `Sysceil_who`, from the cache alone; `None` when the
    /// ceiling is dummy.
    #[inline]
    fn level(&self, who: InstanceId) -> Option<usize> {
        let cache = self.cache?;
        match cache.top_sole {
            Some(a) if a == who => cache.second,
            _ => Some(cache.top),
        }
    }

    /// The level of `Sysceil_who` and its holders other than `who` (`T*`);
    /// `None` when the ceiling is dummy.
    fn query(&self, who: InstanceId) -> Option<(usize, Holders)> {
        let rank = self.level(who)?;
        let holders = self.levels[rank]
            .iter()
            .map(|&(h, _)| h)
            .filter(|&h| h != who)
            .collect();
        Some((rank, holders))
    }
}

/// The incremental ceiling index: a `FlavorIndex` per maintained flavor
/// over the static ceilings it shares with the [`CeilingTable`]. Owned by
/// [`crate::LockTable`] (see [`crate::LockTable::with_index`]), which
/// notifies it of every lock-state transition so the two can never drift
/// apart.
#[derive(Clone, Debug)]
pub struct CeilingIndex {
    statics: Arc<Statics>,
    pcpda: Option<FlavorIndex>,
    rwpcp: Option<FlavorIndex>,
    pcp: Option<FlavorIndex>,
}

impl CeilingIndex {
    /// Index maintaining `flavors` over the static ceilings of `ceilings`.
    pub fn new(ceilings: &CeilingTable, flavors: &[CeilingFlavor]) -> Self {
        let statics = Arc::clone(&ceilings.statics);
        let flavor = |f| {
            flavors
                .contains(&f)
                .then(|| FlavorIndex::new(statics.levels.len()))
        };
        CeilingIndex {
            pcpda: flavor(CeilingFlavor::PcpDa),
            rwpcp: flavor(CeilingFlavor::RwPcp),
            pcp: flavor(CeilingFlavor::Pcp),
            statics,
        }
    }

    /// A lock was *newly* granted (`delta` = `FlavorIndex::add`) or a held
    /// one released (`FlavorIndex::remove`). `only_mode` is true iff `who`
    /// holds no lock on `item` in the other mode, before the grant or
    /// after the release.
    fn on_transition(
        &mut self,
        delta: impl Fn(&mut FlavorIndex, u32, InstanceId),
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
        only_mode: bool,
    ) {
        let c = self.statics.item(item);
        match mode {
            LockMode::Read => {
                if let Some(f) = &mut self.pcpda {
                    delta(f, c.wrank, who);
                }
                if let Some(f) = &mut self.rwpcp {
                    delta(f, c.wrank, who);
                }
            }
            LockMode::Write => {
                if let Some(f) = &mut self.rwpcp {
                    delta(f, c.arank, who);
                }
            }
        }
        if only_mode {
            if let Some(f) = &mut self.pcp {
                delta(f, c.arank, who);
            }
        }
    }

    /// A lock was *newly* granted (not an idempotent re-grant).
    /// `first_on_item` is true iff `who` held no lock on `item` in the
    /// other mode before this grant.
    #[inline]
    pub(crate) fn on_lock_added(
        &mut self,
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
        first_on_item: bool,
    ) {
        self.on_transition(FlavorIndex::add, who, item, mode, first_on_item);
    }

    /// A held lock was released. `last_on_item` is true iff `who` holds no
    /// lock on `item` in the other mode after this release.
    #[inline]
    pub(crate) fn on_lock_removed(
        &mut self,
        who: InstanceId,
        item: ItemId,
        mode: LockMode,
        last_on_item: bool,
    ) {
        self.on_transition(FlavorIndex::remove, who, item, mode, last_on_item);
    }

    /// The index of `flavor`, if maintained.
    #[inline]
    fn flavor(&self, flavor: CeilingFlavor) -> Option<&FlavorIndex> {
        match flavor {
            CeilingFlavor::PcpDa => self.pcpda.as_ref(),
            CeilingFlavor::RwPcp => self.rwpcp.as_ref(),
            CeilingFlavor::Pcp => self.pcp.as_ref(),
        }
    }

    /// The level of `Sysceil` of `flavor` with respect to `who` in O(1),
    /// without its holders, or `None` if the index does not maintain that
    /// flavor.
    #[inline]
    pub fn sysceil_level(&self, flavor: CeilingFlavor, who: InstanceId) -> Option<Ceiling> {
        let rank = self.flavor(flavor)?.level(who);
        Some(rank.map_or(Ceiling::Dummy, |r| self.statics.levels[r]))
    }

    /// `Sysceil` of `flavor` with respect to `who` in O(1), with its
    /// holders (`T*`), or `None` if the index does not maintain that
    /// flavor.
    pub fn sysceil(&self, flavor: CeilingFlavor, who: InstanceId) -> Option<SysCeil> {
        let (rank, holders) = match self.flavor(flavor)?.query(who) {
            Some(found) => found,
            None => return Some(SysCeil::dummy()),
        };
        Some(SysCeil {
            ceiling: self.statics.levels[rank],
            holders,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(t: u32) -> InstanceId {
        InstanceId::first(rtdb_types::TxnId(t))
    }

    /// `(level, holders)` of a query; `None` = dummy.
    fn q(f: &FlavorIndex, who: InstanceId) -> Option<(usize, Vec<InstanceId>)> {
        f.query(who).map(|(rank, holders)| (rank, holders.to_vec()))
    }

    #[test]
    fn flavor_index_tracks_max_and_holders() {
        let mut f = FlavorIndex::new(6);
        assert_eq!(q(&f, i(0)), None);

        f.add(5, i(1));
        f.add(3, i(2));
        assert_eq!(q(&f, i(0)), Some((5, vec![i(1)])));

        // The sole top holder sees the second level instead.
        assert_eq!(q(&f, i(1)), Some((3, vec![i(2)])));

        f.remove(5, i(1));
        assert_eq!(q(&f, i(0)), Some((3, vec![i(2)])));
        f.remove(3, i(2));
        assert_eq!(q(&f, i(0)), None);
    }

    #[test]
    fn a_sole_top_holder_asking_its_own_level_sees_the_level_below() {
        let mut f = FlavorIndex::new(6);
        f.add(5, i(1));
        f.add(3, i(2));
        assert_eq!(f.level(i(1)), Some(3));
        assert_eq!(f.level(i(2)), Some(5));
        assert_eq!(f.level(i(0)), Some(5));
        // Alone in the table, the sole holder faces no ceiling at all.
        f.remove(3, i(2));
        assert_eq!(f.level(i(1)), None);
        assert_eq!(f.level(i(0)), Some(5));
    }

    #[test]
    fn sole_holder_of_many_top_levels_never_rescans_wrong() {
        let mut f = FlavorIndex::new(10);
        // i(1) solely holds the top three levels; i(2) sits below.
        f.add(9, i(1));
        f.add(8, i(1));
        f.add(7, i(1));
        f.add(2, i(2));
        assert_eq!(q(&f, i(1)), Some((2, vec![i(2)])));
        // Everyone else still sees the top.
        assert_eq!(q(&f, i(2)), Some((9, vec![i(1)])));
    }

    #[test]
    fn shared_level_excludes_only_self_and_lists_holders_ascending() {
        let mut f = FlavorIndex::new(5);
        f.add(4, i(3));
        f.add(4, i(1));
        f.add(4, i(2));
        assert_eq!(q(&f, i(1)), Some((4, vec![i(2), i(3)])));
        assert_eq!(q(&f, i(0)), Some((4, vec![i(1), i(2), i(3)])));
    }

    #[test]
    fn multiplicity_is_counted() {
        let mut f = FlavorIndex::new(5);
        f.add(4, i(1));
        f.add(4, i(1)); // second contribution, same level+holder
        f.remove(4, i(1));
        // One contribution remains.
        assert_eq!(q(&f, i(0)), Some((4, vec![i(1)])));
        f.remove(4, i(1));
        assert_eq!(q(&f, i(0)), None);
    }

    #[test]
    fn dummy_levels_are_ignored() {
        let mut f = FlavorIndex::new(1);
        f.add(NO_LEVEL, i(1));
        assert_eq!(q(&f, i(0)), None);
        f.remove(NO_LEVEL, i(1));
    }

    #[test]
    fn occupancy_search_crosses_word_boundaries() {
        let mut f = FlavorIndex::new(130);
        for r in [0, 63, 64, 127, 128, 129] {
            f.add(r, i(1));
        }
        assert_eq!(f.occupied.highest_below(130), Some(129));
        assert_eq!(f.occupied.highest_below(129), Some(128));
        assert_eq!(f.occupied.highest_below(128), Some(127));
        assert_eq!(f.occupied.highest_below(127), Some(64));
        assert_eq!(f.occupied.highest_below(64), Some(63));
        assert_eq!(f.occupied.highest_below(63), Some(0));
        assert_eq!(f.occupied.highest_below(0), None);
        // i(1) is alone on every level down to 0, where i(2) joins it.
        f.add(0, i(2));
        assert_eq!(q(&f, i(1)), Some((0, vec![i(2)])));
        assert_eq!(q(&f, i(2)), Some((129, vec![i(1)])));
        // Emptying a level clears its bit and keeps the rest searchable.
        f.remove(64, i(1));
        assert_eq!(f.occupied.highest_below(127), Some(63));
    }

    #[test]
    fn more_holders_than_fit_inline_still_come_back_sorted() {
        let mut f = FlavorIndex::new(1);
        let n = Holders::INLINE as u32 + 3;
        for t in (0..n).rev() {
            f.add(0, i(t));
        }
        let expect: Vec<InstanceId> = (1..n).map(i).collect();
        assert_eq!(q(&f, i(0)), Some((0, expect)));
    }
}
