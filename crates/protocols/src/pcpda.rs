//! **PCP-DA** — the Priority Ceiling Protocol with Dynamic Adjustment of
//! serialization order (Lam, Son, Hung; ICDE 1997).
//!
//! # The idea
//!
//! Classical real-time priority-ceiling protocols (PCP, RW-PCP, CCP) fix
//! the serialization order between two transactions at the moment of their
//! first conflicting access, because they assume updates take effect in
//! place. That forces a higher-priority transaction `T_H` to *block* behind
//! a lower-priority writer `T_L` even when nothing about data consistency
//! requires it.
//!
//! PCP-DA assumes the **update-in-workspace** model instead: writes are
//! buffered privately and installed at commit. The serialization order
//! between conflicting transactions is then decided only at commit time,
//! which lets the protocol *dynamically adjust* it:
//!
//! * **Write/Read** (`T_L` write-locked `x`, `T_H` wants to read): `T_H`
//!   may preempt, reading the committed pre-image and serializing
//!   `T_H → T_L` — provided `T_H` is guaranteed to commit first, i.e.
//!   `DataRead(T_L) ∩ WriteSet(T_H) = ∅` (otherwise `T_H` would later
//!   block behind `T_L` and `T_L`'s commit would invalidate `T_H`'s read).
//! * **Read/Write** (`T_L` read-locked `x`, `T_H` wants to write): `T_H`
//!   must block — its write would otherwise invalidate `T_L`'s read and
//!   force a restart, which PCP-DA forbids.
//! * **Write/Write**: blind writes never conflict under deferred updates;
//!   the commit order serializes them. Both proceed.
//!
//! Consequently **write locks never raise a ceiling**; only read locks do.
//! Each item needs a single static ceiling, the *write priority ceiling*
//! `Wceil(x)` — the priority of the highest-priority transaction that may
//! write `x` — and the system ceiling `Sysceil_i` is the highest `Wceil`
//! among items read-locked by transactions other than `T_i`.
//!
//! # Locking conditions (paper §5)
//!
//! A request by `T_i` on item `x` is granted iff one of:
//!
//! | | condition |
//! |----|-----------|
//! | LC1 | write-lock request and no other transaction read-holds `x` |
//! | LC2 | read-lock request and `P_i > Sysceil_i` |
//! | LC3 | read-lock request and `P_i > HPW(x)` and `x ∉ WriteSet(T*)` |
//! | LC4 | read-lock request and `P_i = HPW(x)` and `No_Rlock(x)` and `x ∉ WriteSet(T*)` and `DataRead(T*) ∩ WriteSet(T_i) = ∅` |
//!
//! where `T*` holds the read-locked item whose `Wceil` equals `Sysceil_i`,
//! and `HPW(x) = Wceil(x)`. Denied requests block; blockers inherit the
//! requester's priority.
//!
//! A grant names the condition that decided it (`Decision::Grant(Some(_))`,
//! LC1–LC4); the kernel logs that rule with the grant it applies, so the
//! protocol keeps no record of its own and holds no state beyond its
//! literal flag. `DataRead(T)` is the kernel's record, read through
//! [`EngineView::data_read`].
//!
//! PCP-DA keeps RW-PCP's two guarantees — **single blocking** (Theorem 1)
//! and **deadlock freedom** (Theorem 2) — produces only serializable
//! histories with the commit order as a serialization order (Theorem 3),
//! and never aborts or restarts a transaction.
//!
//! # Priority convention
//!
//! The locking conditions compare the requester's **original** (base)
//! priority against ceilings, as in the classical PCP literature; the
//! *running* (possibly inherited) priority governs CPU scheduling only.
//! Ceilings are computed from base priorities, so comparing an inherited
//! priority against them would let a temporarily-boosted transaction take
//! locks its own priority does not justify, breaking Lemma 4 ("`T_i` will
//! not write-lock `x`" is an inference from `P_i > HPW(x)` about `T_i`'s
//! *identity*, valid only for its original priority).
//!
//! # Example
//!
//! ```
//! use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate, LockMode, InstanceId, TxnId};
//! use rtdb_core::{Decision, GrantRule, LockRequest, ProtocolFor};
//! use rtdb_protocols::PcpDa;
//!
//! // Paper Example 3: T1 reads x,y; T2 writes x,y.
//! let set = SetBuilder::new()
//!     .with(TransactionTemplate::new("T1", 5, vec![
//!         Step::read(ItemId(0), 1), Step::read(ItemId(1), 1)]))
//!     .with(TransactionTemplate::new("T2", 10, vec![
//!         Step::write(ItemId(0), 1), Step::compute(2),
//!         Step::write(ItemId(1), 1), Step::compute(1)]))
//!     .build().unwrap();
//!
//! let t1 = InstanceId::first(TxnId(0));
//! let t2 = InstanceId::first(TxnId(1));
//! let mut view = rtdb_core::testkit::StaticView::new(&set);
//! let mut proto = PcpDa::new();
//!
//! // T2 write-locks x (LC1: nobody read-holds x).
//! let d = proto.request(&view, LockRequest { who: t2, item: ItemId(0), mode: LockMode::Write });
//! assert_eq!(d, Decision::Grant(Some(GrantRule::Lc1)));
//! view.grant(t2, ItemId(0), LockMode::Write);
//!
//! // T1 read-locks x although T2 write-holds it (LC2: Sysceil is dummy).
//! let d = proto.request(&view, LockRequest { who: t1, item: ItemId(0), mode: LockMode::Read });
//! assert_eq!(d, Decision::Grant(Some(GrantRule::Lc2)));
//! ```

use rtdb_core::{
    sorted_disjoint as disjoint, CeilingFlavor, CeilingTable, Decision, EngineView, GrantRule,
    LockRequest, LockTable, ProtocolFor,
};
use rtdb_types::{Ceiling, InstanceId, LockMode, Priority};

/// Lemma 4's potential blockers of a transaction at priority `p`: the
/// holders, other than `who`, of read locks whose ceiling reaches `p`
/// (`Wceil(y) ≥ p`). Non-empty iff `Sysceil_who ≥ p`. An instance appears
/// once per such lock. Naive-DA blocks on the same set.
pub(crate) fn ceiling_holders<'v>(
    locks: &'v LockTable,
    ceilings: &'v CeilingTable,
    who: InstanceId,
    p: Priority,
) -> impl Iterator<Item = InstanceId> + 'v {
    locks
        .read_locked_by_others(who)
        .filter(move |(item, _)| !ceilings.wceil(*item).cleared_by(p))
        .flat_map(|(_, holders)| holders)
}

/// The PCP-DA protocol. Stateless — every input it needs is in the
/// [`EngineView`]; a grant names its rule ([`GrantRule`]). Deciding a
/// request allocates only past four blockers ([`rtdb_core::Holders`]).
///
/// # Errata repaired by the default constructor
///
/// Randomized testing against this repository's serializability and
/// wait-for oracles showed that the locking conditions **as literally
/// printed** violate Theorems 1–3 on reachable schedules (concrete
/// counterexamples live in `tests/theorem2_counterexample.rs` and are
/// discussed in EXPERIMENTS.md). [`PcpDa::new`] adds four minimal
/// clauses; [`PcpDa::paper_literal`] keeps the printed rules so the
/// counterexamples can be demonstrated. Every worked example of the
/// paper behaves identically under both.
///
/// * **(A) LC3 side condition** — LC3 additionally requires
///   `DataRead(T*) ∩ WriteSet(T_i) = ∅` (the clause the paper already
///   uses in LC4) whenever the requested lock could actually
///   ceiling-block `T*` (`Wceil(x) ≥ P_{T*}`). The paper argues the
///   clause is implied; the implication is sound for LC2 (an item of
///   `WriteSet(T_i)` carries `Wceil ≥ P_i`, so its read lock would defeat
///   `P_i > Sysceil`) but not for LC3, and without it `T_i` can
///   conflict-block behind `T*` while its new read lock ceiling-blocks
///   `T*` — a deadlock. (The `Wceil(x) ≥ P_{T*}` qualifier matters in the
///   other direction: denying a *harmless* low-ceiling read would leave
///   `T_i` unable to reach the hard-block state guard (D) recognises,
///   creating the very cycle the clause exists to prevent.)
/// * **(B) future-read safety** — LC3/LC4 additionally require every
///   yet-unread item of `T_i`'s static read set to carry `Wceil ≤ P_i`.
///   Otherwise a later read by `T_i` cannot clear LC3/LC4's priority
///   test while `T*`'s standing read locks pin `Sysceil ≥ P_i`, so `T_i`
///   blocks on `T*` — with the same circular-wait consequence, in a
///   read-read flavour the paper's Lemma 8 does not consider.
/// * **(C) write-lock guard** — when `T_i`'s future reads are *not*
///   clause-(B) safe (it may later ceiling-block on a holder), LC1 must
///   not hand it a write lock on an item that a standing ceiling holder
///   still needs to read: the holder's future read would wait on the
///   write lock (see (D)) while `T_i` waits on the holder's ceilings.
///   This qualifies the paper's Lemma 1 ("write locks block nobody"),
///   which holds for higher-priority requesters only.
/// * **(D) commit-order guard** — a read of an item write-locked by a
///   *higher-base-priority* transaction is blocked unless that holder is
///   hard-blocked on the requester (its pending request provably stays
///   denied until the requester commits: a pending write against the
///   requester's read lock; or a pending read whose LC2 is pinned by the
///   requester's ceiling locks while LC3/LC4 are pinned either statically
///   (`P_holder < HPW(v)`) or by clause (A) through the requester
///   itself). Table 1's `W/R = OK*` cell silently assumes the requester
///   outranks the holder; a lower-priority reader cannot otherwise be
///   guaranteed to commit first, and the holder's earlier commit would
///   invalidate the read — breaking Lemma 9 and Theorem 3's commit-order
///   serialization.
#[derive(Debug, Default)]
pub struct PcpDa {
    /// Skip the LC3 side condition (the paper's literal text).
    literal_lc3: bool,
}

impl PcpDa {
    /// PCP-DA with the erratum clauses (A)–(D) — deadlock-free and
    /// serializable on every workload this repository's property tests
    /// have thrown at it.
    pub fn new() -> Self {
        Self::default()
    }

    /// PCP-DA with the locking conditions exactly as the paper prints
    /// them — subject to the Theorem 1–3 counterexamples. Only for
    /// demonstrating the errata.
    pub fn paper_literal() -> Self {
        PcpDa { literal_lc3: true }
    }

    /// True if `holder`'s pending lock request is guaranteed to stay
    /// denied until `me` commits — so `holder`, despite its higher
    /// priority, commits after `me`. Two shapes qualify (locks are held to
    /// commit, so a denial caused by a lock `me` holds cannot clear
    /// earlier):
    ///
    /// * a pending **write** of an item `me` read-holds (LC1 denies it
    ///   outright while any foreign read lock exists);
    /// * a pending **read** of an item `v` with `P_holder < HPW(v)` — LC3
    ///   and LC4 are then *statically* impossible for the holder — while
    ///   `me` read-holds some item `m` with `Wceil(m) ≥ P_holder`, pinning
    ///   the holder's LC2 false (`Sysceil_holder ≥ Wceil(m)` until `me`
    ///   commits).
    fn hard_blocked_on<V: EngineView + ?Sized>(
        &self,
        view: &V,
        holder: InstanceId,
        me: InstanceId,
    ) -> bool {
        let Some(pending) = view.pending_request(holder) else {
            return false;
        };
        match pending.mode {
            LockMode::Write => view.locks().holds(me, pending.item, LockMode::Read),
            LockMode::Read => {
                let p_holder = view.base_priority(holder);
                // LC2 must be pinned false by a read lock `me` holds.
                let lc2_pinned = view.locks().held_by(me).any(|l| {
                    l.mode == LockMode::Read && !view.ceilings().wceil(l.item).cleared_by(p_holder)
                });
                if !lc2_pinned {
                    return false;
                }
                // LC3/LC4 must be pinned false too. Two recognised pins:
                // (i) statically impossible: `P_holder < HPW(v)`;
                // (ii) clause (A) pins it through `me`: `me` attains the
                //     holder's Sysceil, has read something the holder may
                //     write, and the pending item's ceiling reaches `me`'s
                //     priority (so the refined clause (A) actually bites) —
                //     all facts that persist until `me` commits.
                let lc34_impossible = match view.ceilings().wceil(pending.item) {
                    Ceiling::At(h) => p_holder < h,
                    Ceiling::Dummy => false,
                };
                if lc34_impossible {
                    return true;
                }
                let sys = view.ceilings().pcpda_sysceil(view.locks(), holder);
                let me_is_tstar = sys.holders.contains(&me);
                let a_pins = me_is_tstar
                    && !view
                        .ceilings()
                        .wceil(pending.item)
                        .cleared_by(view.base_priority(me))
                    && !disjoint(view.data_read(me), view.ceilings().write_set(holder.txn));
                a_pins
            }
        }
    }

    /// Lemma-derived safety check (debug builds only): when a read of a
    /// write-held item is granted through LC2/LC3, every write-holder of
    /// the item must satisfy `DataRead(holder) ∩ WriteSet(T_i) = ∅`. The
    /// paper proves this holds structurally (the intersection items would
    /// carry `Wceil ≥ P_i`, contradicting LC2/LC3 via Lemma 5); a failure
    /// here would mean the implementation diverged from the theory.
    fn assert_wr_preemption_safe<V: EngineView + ?Sized>(&self, view: &V, req: LockRequest) {
        if cfg!(debug_assertions) {
            let my_writes = view.ceilings().write_set(req.who.txn);
            for w in view.locks().writers_other_than(req.item, req.who) {
                debug_assert!(
                    disjoint(view.data_read(w), my_writes),
                    "Lemma 5/9 violation: {} read-set intersects {} write-set on grant of {:?}",
                    w,
                    req.who,
                    req
                );
            }
        }
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for PcpDa {
    fn name(&self) -> &'static str {
        if self.literal_lc3 {
            "PCP-DA-literal"
        } else {
            "PCP-DA"
        }
    }

    /// Decide a request; a grant names the locking condition that
    /// decided it.
    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let locks = view.locks();
        let ceilings = view.ceilings();
        let p_i = view.base_priority(req.who);

        // Erratum clause (B) (see the type-level docs): T_i's reads that
        // are still to come can always clear LC3/LC4 — i.e. every
        // yet-unlocked item `w` in the static read set (i) carries
        // `Wceil(w) ≤ P_i` (the priority part of LC3/LC4 passes) and
        // (ii) is not in the write set of any transaction currently
        // holding a read lock whose ceiling reaches P_i (those holders
        // are the `T*` candidates T_i would face, and `w ∈ WriteSet(T*)`
        // pins LC3/LC4 false for as long as they hold). A transaction
        // with this property can never ceiling-block on a standing
        // holder once its current request is granted, which both LC3/LC4
        // (for reads) and the clause-(C) write guard rely on. Consulted
        // only once `Sysceil_i ≥ P_i` is known, i.e. off the LC2 path.
        let future_reads_safe = || {
            ceilings
                .read_set(req.who.txn)
                .iter()
                .filter(|&&w| !locks.holds(req.who, w, LockMode::Read))
                .filter(|&&w| !(req.mode == LockMode::Read && w == req.item))
                .all(|&w| {
                    Ceiling::At(p_i) >= ceilings.wceil(w)
                        && ceiling_holders(locks, ceilings, req.who, p_i)
                            .all(|h| !ceilings.may_write(h.txn, w))
                })
        };

        match req.mode {
            LockMode::Write => {
                // LC1: x must not be read-locked by any other transaction.
                // Existing write locks do not matter: blind writes are
                // non-conflicting under deferred updates (§4.1, Case 3).
                if !locks.no_rlock_by_others(req.item, req.who) {
                    return Decision::block_on(
                        req.who,
                        locks.readers_other_than(req.item, req.who),
                    );
                }
                // Erratum clause (C): while some lower-layer transaction
                // holds read locks whose ceiling reaches P_i (so T_i may
                // later ceiling-block on it), T_i must not write-lock an
                // item that holder may still READ: the holder's future
                // read would wait on this write lock while T_i waits on
                // the holder's ceilings — a circular wait the paper's
                // Lemma 1 ("write locks block nobody") overlooks, since a
                // write lock does block *lower-priority* readers (they
                // cannot be guaranteed to commit first; see the
                // commit-order guard).
                // The guard is needed only when T_i itself may later
                // ceiling-block on the holder (its future reads are not
                // clause-(B) safe); a transaction that can never block on
                // lower-priority holders closes no cycle, and denying it
                // here would itself create one (observed on a self-upgrade
                // of a read lock to a write lock).
                // Such holders exist iff `Sysceil_i ≥ P_i`, which the
                // index answers in O(1) before anything is scanned.
                if !self.literal_lc3
                    && !ceilings.pcpda_sysceil_level(locks, req.who).cleared_by(p_i)
                    && !future_reads_safe()
                {
                    let mut risky = ceiling_holders(locks, ceilings, req.who, p_i)
                        .filter(|h| ceilings.may_read(h.txn, req.item))
                        .peekable();
                    if risky.peek().is_some() {
                        return Decision::block_on(req.who, risky);
                    }
                }
                Decision::Grant(Some(GrantRule::Lc1))
            }
            LockMode::Read => {
                // Commit-order guard (second erratum, see the type-level
                // docs): a read of `x` serializes the reader *before*
                // every current write-holder of `x`, so each such holder
                // must be guaranteed to commit after the reader. A
                // lower-priority holder is preempted by scheduling; a
                // HIGHER-priority holder provides that guarantee only if
                // it is hard-blocked on the requester (its pending write
                // request conflicts with a read lock the requester holds —
                // a block that cannot clear before the requester commits).
                // Only LC2 can encounter a higher-priority write-holder:
                // LC3/LC4 bound `P_i` against `HPW(x)`, which dominates
                // every writer of `x`. Walked lazily: LC2 needs only to
                // know whether there is one, a denial names them all.
                let (this, guarded) = (&*self, !self.literal_lc3);
                let offending_higher_writers = move || {
                    locks
                        .writers_other_than(req.item, req.who)
                        .filter(move |&w| guarded && view.base_priority(w) > p_i)
                        .filter(move |&w| !this.hard_blocked_on(view, w, req.who))
                };

                // LC2: P_i > Sysceil_i.
                if ceilings.pcpda_sysceil_level(locks, req.who).cleared_by(p_i) {
                    if offending_higher_writers().next().is_none() {
                        self.assert_wr_preemption_safe(view, req);
                        return Decision::Grant(Some(GrantRule::Lc2));
                    }
                    return Decision::block_on(req.who, offending_higher_writers());
                }

                // T*: holder(s) of the read-locked item(s) at Sysceil.
                // Lemma 6 proves the *lower-priority* holder is unique;
                // we treat the whole set conservatively.
                let sys = ceilings.pcpda_sysceil(locks, req.who);
                let tstar = &sys.holders;
                let tstar_may_write_x = tstar.iter().any(|t| ceilings.may_write(t.txn, req.item));

                let hpw = ceilings.wceil(req.item);
                let my_writes = ceilings.write_set(req.who.txn);
                // Erratum clause (A) (see the type-level docs): T* must
                // not have read anything T_i may later write, otherwise
                // T_i will conflict-block behind T* (Case 2) while its
                // read locks ceiling-block T* — a deadlock. The clause
                // only bites when the requested lock could actually
                // ceiling-block T* (`Wceil(x) ≥ P_{T*}`): a lock whose
                // ceiling lies below T*'s priority can block nobody in
                // T*, and T_i's eventual Case-2 wait behind T* is then an
                // ordinary hard block the commit-order guard recognises.
                let tstar_clean = tstar.iter().all(|t| {
                    ceilings.wceil(req.item).cleared_by(view.base_priority(*t))
                        || disjoint(view.data_read(*t), my_writes)
                });
                // LC3: P_i > HPW(x) and x ∉ WriteSet(T*)
                // (+ the erratum clauses unless running literal).
                if hpw.cleared_by(p_i)
                    && !tstar_may_write_x
                    && (self.literal_lc3 || (tstar_clean && future_reads_safe()))
                {
                    self.assert_wr_preemption_safe(view, req);
                    return Decision::Grant(Some(GrantRule::Lc3));
                }

                // LC4: P_i = HPW(x) and No_Rlock(x) and x ∉ WriteSet(T*)
                // and DataRead(T*) ∩ WriteSet(T_i) = ∅. The last clause is
                // Table 1's side condition — T_i is itself the top-priority
                // writer of x, so nothing structural guarantees it, and it
                // must be checked explicitly (paper §5). We check it
                // against T* and against every current write-holder of x
                // (the transactions whose commit could invalidate reads).
                if hpw == Ceiling::At(p_i)
                    && locks.no_rlock_by_others(req.item, req.who)
                    && !tstar_may_write_x
                    && (self.literal_lc3 || future_reads_safe())
                {
                    let holders_clean = locks
                        .writers_other_than(req.item, req.who)
                        .all(|w| disjoint(view.data_read(w), my_writes));
                    if tstar_clean && holders_clean {
                        return Decision::Grant(Some(GrantRule::Lc4));
                    }
                }

                // Denied. Per Lemma 4 the transactions able to block T_i
                // are exactly those holding a read lock on an item y with
                // Wceil(y) >= P_i; add any write-holder of x whose
                // DataRead intersects WriteSet(T_i) (the LC4 side
                // condition) so inheritance reaches it too.
                let blockers = ceiling_holders(locks, ceilings, req.who, p_i)
                    .chain(
                        locks
                            .writers_other_than(req.item, req.who)
                            .filter(|&w| !disjoint(view.data_read(w), my_writes)),
                    )
                    .chain(offending_higher_writers());
                Decision::block_on(req.who, blockers)
            }
        }
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        Some(CeilingFlavor::PcpDa)
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        view.ceilings()
            .pcpda_sysceil_level(view.locks(), rtdb_core::protocol::ceiling_observer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate, TxnId};

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    fn req(who: InstanceId, item: u32, mode: LockMode) -> LockRequest {
        LockRequest {
            who,
            item: ItemId(item),
            mode,
        }
    }

    /// Example 3 set: T1: R(x),R(y); T2: W(x),W(y).
    fn example3() -> rtdb_types::TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                5,
                vec![Step::read(ItemId(0), 1), Step::read(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![
                    Step::write(ItemId(0), 1),
                    Step::compute(2),
                    Step::write(ItemId(1), 1),
                    Step::compute(1),
                ],
            ))
            .build()
            .unwrap()
    }

    /// Example 4 set: T1: R(x); T2: W(y); T3: R(z),W(z); T4: R(y),W(x).
    fn example4() -> rtdb_types::TransactionSet {
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

    #[test]
    fn lc1_grants_write_on_unread_item() {
        let set = example3();
        let view = StaticView::new(&set);
        let mut p = PcpDa::new();
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Write)),
            Decision::Grant(Some(GrantRule::Lc1))
        );
    }

    #[test]
    fn lc1_allows_concurrent_blind_writes() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::write(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                10,
                vec![Step::write(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        view.grant(i(0), ItemId(0), LockMode::Write);
        let mut p = PcpDa::new();
        // Second blind write on the same item is granted (Case 3).
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Write)),
            Decision::Grant(Some(GrantRule::Lc1))
        );
    }

    #[test]
    fn lc1_blocks_write_on_foreign_read_lock() {
        let set = example3();
        let mut view = StaticView::new(&set);
        view.grant(i(0), ItemId(0), LockMode::Read);
        view.record_read(i(0), ItemId(0));
        let mut p = PcpDa::new();
        let d = p.request(&view, req(i(1), 0, LockMode::Write));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(0)].into()
            }
        );
    }

    #[test]
    fn lc1_ignores_own_read_lock_for_upgrade() {
        let set = example4();
        let mut view = StaticView::new(&set);
        // T3 read-locks z, then upgrades to write (Example 4, time 2).
        view.grant(i(2), ItemId(2), LockMode::Read);
        view.record_read(i(2), ItemId(2));
        let mut p = PcpDa::new();
        assert_eq!(
            p.request(&view, req(i(2), 2, LockMode::Write)),
            Decision::Grant(Some(GrantRule::Lc1))
        );
    }

    #[test]
    fn lc2_grants_read_over_write_lock() {
        // Example 3, time 1: T2 write-holds x; Sysceil is dummy (write
        // locks raise no ceiling); T1 reads x via LC2.
        let set = example3();
        let mut view = StaticView::new(&set);
        view.grant(i(1), ItemId(0), LockMode::Write);
        let mut p = PcpDa::new();
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::Grant(Some(GrantRule::Lc2))
        );
    }

    #[test]
    fn lc4_grants_top_writer_read_as_in_example4() {
        // Example 4, time 1: T4 read-holds y (Wceil(y)=P2 >= P3), T3
        // requests read z. LC2 false; LC4: P3 = HPW(z), z unread, z not in
        // WriteSet(T4), DataRead(T4)={y} disjoint from WriteSet(T3)={z}.
        let set = example4();
        let mut view = StaticView::new(&set);
        view.grant(i(3), ItemId(1), LockMode::Read);
        view.record_read(i(3), ItemId(1));
        let mut p = PcpDa::new();
        assert_eq!(
            p.request(&view, req(i(2), 2, LockMode::Read)),
            Decision::Grant(Some(GrantRule::Lc4))
        );
    }

    #[test]
    fn lc3_grants_read_above_all_writers() {
        // Example 4, time 4 analog: T4 read-holds y; T1 requests read x.
        // Actually LC2 already grants (P1 > Wceil(y)=P2); force the LC3
        // path with T2's perspective on z is impossible (T2 doesn't read).
        // Use a bespoke set: A: R(a); B: R(b); C: W(a),R(b)... simpler:
        // requester priority above HPW(x) but not above Sysceil.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::write(ItemId(9), 1)],
            )) // highest, writes w
            .with(TransactionTemplate::new(
                "M",
                10,
                vec![Step::read(ItemId(0), 1)], // reads x
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![Step::read(ItemId(9), 1), Step::write(ItemId(0), 1)], // reads w (Wceil=P_H), writes x
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        // L read-locks w: Sysceil = Wceil(w) = P_H >= P_M -> LC2 false for M.
        view.grant(i(2), ItemId(9), LockMode::Read);
        view.record_read(i(2), ItemId(9));
        let mut p = PcpDa::new();
        // M requests read x: HPW(x) = P_L < P_M, and x IS in WriteSet(L)=T*.
        // -> LC3 fails on the T* clause; M must block on L.
        let d = p.request(&view, req(i(1), 0, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(2)].into()
            }
        );

        // Variant: T* does not write x -> LC3 grants.
        let set2 = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::write(ItemId(9), 1)],
            ))
            .with(TransactionTemplate::new(
                "M",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![Step::read(ItemId(9), 1), Step::write(ItemId(5), 1)],
            ))
            .with(TransactionTemplate::new(
                "L2",
                10,
                vec![Step::write(ItemId(0), 1)], // some lower writer of x so HPW(x) defined
            ))
            .build()
            .unwrap();
        let mut view2 = StaticView::new(&set2);
        view2.grant(i(2), ItemId(9), LockMode::Read);
        view2.record_read(i(2), ItemId(9));
        let mut p2 = PcpDa::new();
        assert_eq!(
            p2.request(&view2, req(i(1), 0, LockMode::Read)),
            Decision::Grant(Some(GrantRule::Lc3))
        );
    }

    #[test]
    fn lc4_rejected_when_tstar_read_intersects_writeset() {
        // Example 5's protection: T_H: R(y),W(x); T_L: R(x),W(y).
        // T_L read-locks x first. T_H requests read y:
        //   LC2: Sysceil = Wceil(x) = P_H (T_H writes x) -> not cleared.
        //   LC3: HPW(y) = P_L < P_H but DataRead(T*)={x} ∩ WriteSet(T_H)={x} ≠ ∅...
        //        LC3's own clause: y ∉ WriteSet(T_L)? y IS in WriteSet(T_L) -> LC3 false.
        //   LC4: P_H ≠ HPW(y) = P_L -> false.
        // => blocked; blocker is T_L.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "TH",
                10,
                vec![Step::read(ItemId(1), 1), Step::write(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "TL",
                10,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        view.grant(i(1), ItemId(0), LockMode::Read);
        view.record_read(i(1), ItemId(0));
        let mut p = PcpDa::new();
        let d = p.request(&view, req(i(0), 1, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(1)].into()
            }
        );
    }

    #[test]
    fn read_blocked_by_ceiling_names_tstar_as_blocker() {
        // Lower-priority transaction requests a read while a ceiling at or
        // above its priority is held by another low transaction.
        let set = example4();
        let mut view = StaticView::new(&set);
        // T4 read-locks y (Wceil(y) = P2).
        view.grant(i(3), ItemId(1), LockMode::Read);
        view.record_read(i(3), ItemId(1));
        let mut p = PcpDa::new();
        // T3 requests read of y itself: LC2 false (P3 < P2), LC3 false
        // (HPW(y)=P2 > P3), LC4 false (P3 != P2). Blocked by T4.
        let d = p.request(&view, req(i(2), 1, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(3)].into()
            }
        );
    }

    #[test]
    fn clause_b_denies_lc3_when_future_read_has_high_ceiling() {
        // M requests read of m (HPW(m) < P_M, so literal LC3 grants), but
        // M will later read `big` whose Wceil exceeds P_M: while T* holds
        // its ceiling, M's future read could only wait on T* — clause (B)
        // blocks M up front instead.
        // H writes `big` (Wceil(big) = P_H); M reads m then big; W is the
        // only writer of m (HPW(m) = P_W < P_M); L read-holds big, making
        // it the standing ceiling holder.
        let set2 = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::write(ItemId(3), 1)],
            ))
            .with(TransactionTemplate::new(
                "M",
                10,
                vec![Step::read(ItemId(2), 1), Step::read(ItemId(3), 1)],
            ))
            .with(TransactionTemplate::new(
                "W",
                10,
                vec![Step::write(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![Step::read(ItemId(3), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set2);
        let l = i(3);
        view.grant(l, ItemId(3), LockMode::Read); // L read-holds big: Sysceil = P_H
        view.record_read(l, ItemId(3));
        let mut p = PcpDa::new();
        // LC2 fails (Sysceil = P_H > P_M); literal LC3 would grant R(m)
        // (P_M > HPW(m), m not in WriteSet(L)); clause (B) denies because
        // M's future read `big` has Wceil = P_H > P_M.
        let d = p.request(&view, req(i(1), 2, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [l].into()
            }
        );
        // The literal protocol indeed grants here.
        let mut literal = PcpDa::paper_literal();
        assert_eq!(
            literal.request(&view, req(i(1), 2, LockMode::Read)),
            Decision::Grant(Some(GrantRule::Lc3))
        );
    }

    #[test]
    fn clause_c_write_guard_fires_only_with_unsafe_future_reads() {
        // T* (= L) read-holds `hot` (Wceil >= P_M) and will later read y.
        // M wants to write y.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::write(ItemId(0), 1)],
            )) // Wceil(hot)=P_H
            .with(TransactionTemplate::new(
                "M-unsafe",
                10,
                vec![Step::write(ItemId(1), 1), Step::read(ItemId(0), 1)], // W(y), R(hot): future read unsafe
            ))
            .with(TransactionTemplate::new(
                "M-safe",
                10,
                vec![Step::write(ItemId(1), 1), Step::compute(1)], // W(y) only
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![Step::read(ItemId(0), 1), Step::read(ItemId(1), 1)], // R(hot), R(y)
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let l = i(3);
        view.grant(l, ItemId(0), LockMode::Read);
        view.record_read(l, ItemId(0));
        let mut p = PcpDa::new();
        // M-unsafe's future read of `hot` cannot clear LC3 while L holds
        // it -> clause (C) blocks the write of y (y in L's read set).
        let d = p.request(&view, req(i(1), 1, LockMode::Write));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [l].into()
            }
        );
        // M-safe has no future reads -> LC1 grants the same write.
        assert_eq!(
            p.request(&view, req(i(2), 1, LockMode::Write)),
            Decision::Grant(Some(GrantRule::Lc1))
        );
    }

    #[test]
    fn clause_d_read_over_higher_writer_needs_hard_block() {
        // W (higher) write-holds x; L (lower) wants to read x.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "W",
                10,
                vec![Step::write(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![
                    Step::read(ItemId(1), 1),
                    Step::read(ItemId(0), 1),
                    Step::compute(1),
                ],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let (w, l) = (i(0), i(1));
        view.grant(w, ItemId(0), LockMode::Write);
        let mut p = PcpDa::new();
        // W is running (not blocked): L's read of x is denied — W would
        // commit first and invalidate it.
        let d = p.request(&view, req(l, 0, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [w].into()
            }
        );

        // Now W is hard-blocked on L: W's pending write of y conflicts
        // with L's read lock on y. L's read of x becomes safe.
        view.grant(l, ItemId(1), LockMode::Read);
        view.record_read(l, ItemId(1));
        view.set_pending(
            w,
            LockRequest {
                who: w,
                item: ItemId(1),
                mode: LockMode::Write,
            },
        );
        assert_eq!(
            p.request(&view, req(l, 0, LockMode::Read)),
            Decision::Grant(Some(GrantRule::Lc2))
        );
    }

    #[test]
    fn grants_name_their_rules() {
        let set = example3();
        let mut view = StaticView::new(&set);
        let mut p = PcpDa::new();
        let r = req(i(1), 0, LockMode::Write);
        assert_eq!(p.request(&view, r), Decision::Grant(Some(GrantRule::Lc1)));
        view.grant(i(1), ItemId(0), LockMode::Write);
        let r2 = req(i(0), 0, LockMode::Read);
        assert_eq!(p.request(&view, r2), Decision::Grant(Some(GrantRule::Lc2)));
        assert_eq!(ProtocolFor::<StaticView>::name(&p), "PCP-DA");
        assert!(!ProtocolFor::<StaticView>::may_abort(&p));
    }

    #[test]
    fn literal_variant_names_itself() {
        let p = PcpDa::paper_literal();
        assert_eq!(ProtocolFor::<StaticView>::name(&p), "PCP-DA-literal");
    }
}
