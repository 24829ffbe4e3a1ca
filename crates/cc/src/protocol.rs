//! The PCP-DA locking conditions.

use rtdb_core::{
    sorted_disjoint as disjoint, CeilingFlavor, CeilingTable, Decision, EngineView, LockRequest,
    LockTable, ProtocolFor,
};
use rtdb_types::{Ceiling, InstanceId, LockMode, Priority};
use std::collections::VecDeque;

/// Lemma 4's potential blockers of a transaction at priority `p`: the
/// holders, other than `who`, of read locks whose ceiling reaches `p`
/// (`Wceil(y) ≥ p`). Non-empty iff `Sysceil_who ≥ p`. An instance appears
/// once per such lock.
fn ceiling_holders<'v>(
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

/// Which locking condition granted a request — exposed for tracing and for
/// the paper's worked examples, whose narratives name the conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantRule {
    /// Write lock, no foreign read lock on the item.
    Lc1,
    /// Read lock, `P_i > Sysceil_i`.
    Lc2,
    /// Read lock, `P_i > HPW(x)` and `x ∉ WriteSet(T*)`.
    Lc3,
    /// Read lock, `P_i = HPW(x)`, `No_Rlock(x)`, `x ∉ WriteSet(T*)`,
    /// `DataRead(T*) ∩ WriteSet(T_i) = ∅`.
    Lc4,
}

/// The PCP-DA protocol. Stateless — every input it needs is in the
/// [`EngineView`] — except for a trace of which rule granted the most
/// recent requests (useful to assert the paper's example narratives).
/// Deciding a request allocates only to name the blockers of a denial.
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
    /// `(request, rule)` of the most recent grants, oldest first: a ring
    /// of [`PcpDa::GRANT_LOG_CAPACITY`] entries.
    grant_log: VecDeque<(LockRequest, GrantRule)>,
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
        PcpDa {
            literal_lc3: true,
            ..Self::default()
        }
    }

    /// How many grants [`PcpDa::grant_log`] remembers. The log exists to
    /// check the narratives of the paper's worked examples (a dozen
    /// grants); a protocol instance lives as long as its server, so the
    /// log is a fixed-size ring, not a history.
    pub const GRANT_LOG_CAPACITY: usize = 64;

    /// The `(request, rule)` of the most recent grants — at most
    /// [`PcpDa::GRANT_LOG_CAPACITY`], oldest first.
    pub fn grant_log(&self) -> &VecDeque<(LockRequest, GrantRule)> {
        &self.grant_log
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

    /// Decide a request and also report which rule granted it.
    pub fn decide<V: EngineView + ?Sized>(
        &self,
        view: &V,
        req: LockRequest,
    ) -> Result<GrantRule, Decision> {
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
                    return Err(Decision::block_on(
                        req.who,
                        locks.readers_other_than(req.item, req.who),
                    ));
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
                    && !ceilings
                        .pcpda_sysceil(locks, req.who)
                        .ceiling
                        .cleared_by(p_i)
                    && !future_reads_safe()
                {
                    let mut risky = ceiling_holders(locks, ceilings, req.who, p_i)
                        .filter(|h| ceilings.may_read(h.txn, req.item))
                        .peekable();
                    if risky.peek().is_some() {
                        return Err(Decision::block_on(req.who, risky));
                    }
                }
                Ok(GrantRule::Lc1)
            }
            LockMode::Read => {
                let sys = ceilings.pcpda_sysceil(locks, req.who);

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
                // every writer of `x`.
                let offending_higher_writers: Vec<InstanceId> = if self.literal_lc3 {
                    Vec::new()
                } else {
                    locks
                        .writers_other_than(req.item, req.who)
                        .filter(|&w| view.base_priority(w) > p_i)
                        .filter(|&w| !self.hard_blocked_on(view, w, req.who))
                        .collect()
                };

                // LC2: P_i > Sysceil_i.
                if sys.ceiling.cleared_by(p_i) {
                    if offending_higher_writers.is_empty() {
                        self.assert_wr_preemption_safe(view, req);
                        return Ok(GrantRule::Lc2);
                    }
                    return Err(Decision::block_on(req.who, offending_higher_writers));
                }

                // T*: holder(s) of the read-locked item(s) at Sysceil.
                // Lemma 6 proves the *lower-priority* holder is unique;
                // we treat the whole set conservatively.
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
                    return Ok(GrantRule::Lc3);
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
                        return Ok(GrantRule::Lc4);
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
                    .chain(offending_higher_writers);
                Err(Decision::block_on(req.who, blockers))
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

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        match self.decide(view, req) {
            Ok(rule) => {
                if self.grant_log.len() == Self::GRANT_LOG_CAPACITY {
                    self.grant_log.pop_front();
                }
                self.grant_log.push_back((req, rule));
                Decision::Grant
            }
            Err(block) => block,
        }
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        Some(CeilingFlavor::PcpDa)
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        view.ceilings()
            .pcpda_sysceil(view.locks(), rtdb_core::protocol::ceiling_observer())
            .ceiling
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
        let p = PcpDa::new();
        assert_eq!(
            p.decide(&view, req(i(1), 0, LockMode::Write)),
            Ok(GrantRule::Lc1)
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
        let p = PcpDa::new();
        // Second blind write on the same item is granted (Case 3).
        assert_eq!(
            p.decide(&view, req(i(1), 0, LockMode::Write)),
            Ok(GrantRule::Lc1)
        );
    }

    #[test]
    fn lc1_blocks_write_on_foreign_read_lock() {
        let set = example3();
        let mut view = StaticView::new(&set);
        view.grant(i(0), ItemId(0), LockMode::Read);
        view.record_read(i(0), ItemId(0));
        let p = PcpDa::new();
        let d = p.decide(&view, req(i(1), 0, LockMode::Write)).unwrap_err();
        assert_eq!(
            d,
            Decision::Block {
                blockers: vec![i(0)]
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
        let p = PcpDa::new();
        assert_eq!(
            p.decide(&view, req(i(2), 2, LockMode::Write)),
            Ok(GrantRule::Lc1)
        );
    }

    #[test]
    fn lc2_grants_read_over_write_lock() {
        // Example 3, time 1: T2 write-holds x; Sysceil is dummy (write
        // locks raise no ceiling); T1 reads x via LC2.
        let set = example3();
        let mut view = StaticView::new(&set);
        view.grant(i(1), ItemId(0), LockMode::Write);
        let p = PcpDa::new();
        assert_eq!(
            p.decide(&view, req(i(0), 0, LockMode::Read)),
            Ok(GrantRule::Lc2)
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
        let p = PcpDa::new();
        assert_eq!(
            p.decide(&view, req(i(2), 2, LockMode::Read)),
            Ok(GrantRule::Lc4)
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
        let p = PcpDa::new();
        // M requests read x: HPW(x) = P_L < P_M, and x IS in WriteSet(L)=T*.
        // -> LC3 fails on the T* clause; M must block on L.
        let d = p.decide(&view, req(i(1), 0, LockMode::Read)).unwrap_err();
        assert_eq!(
            d,
            Decision::Block {
                blockers: vec![i(2)]
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
        let p2 = PcpDa::new();
        assert_eq!(
            p2.decide(&view2, req(i(1), 0, LockMode::Read)),
            Ok(GrantRule::Lc3)
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
        let p = PcpDa::new();
        let d = p.decide(&view, req(i(0), 1, LockMode::Read)).unwrap_err();
        assert_eq!(
            d,
            Decision::Block {
                blockers: vec![i(1)]
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
        let p = PcpDa::new();
        // T3 requests read of y itself: LC2 false (P3 < P2), LC3 false
        // (HPW(y)=P2 > P3), LC4 false (P3 != P2). Blocked by T4.
        let d = p.decide(&view, req(i(2), 1, LockMode::Read)).unwrap_err();
        assert_eq!(
            d,
            Decision::Block {
                blockers: vec![i(3)]
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
        let p = PcpDa::new();
        // LC2 fails (Sysceil = P_H > P_M); literal LC3 would grant R(m)
        // (P_M > HPW(m), m not in WriteSet(L)); clause (B) denies because
        // M's future read `big` has Wceil = P_H > P_M.
        let d = p.decide(&view, req(i(1), 2, LockMode::Read)).unwrap_err();
        assert_eq!(d, Decision::Block { blockers: vec![l] });
        // The literal protocol indeed grants here.
        let literal = PcpDa::paper_literal();
        assert_eq!(
            literal.decide(&view, req(i(1), 2, LockMode::Read)),
            Ok(GrantRule::Lc3)
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
        let p = PcpDa::new();
        // M-unsafe's future read of `hot` cannot clear LC3 while L holds
        // it -> clause (C) blocks the write of y (y in L's read set).
        let d = p.decide(&view, req(i(1), 1, LockMode::Write)).unwrap_err();
        assert_eq!(d, Decision::Block { blockers: vec![l] });
        // M-safe has no future reads -> LC1 grants the same write.
        assert_eq!(
            p.decide(&view, req(i(2), 1, LockMode::Write)),
            Ok(GrantRule::Lc1)
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
        let p = PcpDa::new();
        // W is running (not blocked): L's read of x is denied — W would
        // commit first and invalidate it.
        let d = p.decide(&view, req(l, 0, LockMode::Read)).unwrap_err();
        assert_eq!(d, Decision::Block { blockers: vec![w] });

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
            p.decide(&view, req(l, 0, LockMode::Read)),
            Ok(GrantRule::Lc2)
        );
    }

    #[test]
    fn grant_log_records_rules() {
        let set = example3();
        let mut view = StaticView::new(&set);
        let mut p = PcpDa::new();
        let r = req(i(1), 0, LockMode::Write);
        assert_eq!(p.request(&view, r), Decision::Grant);
        view.grant(i(1), ItemId(0), LockMode::Write);
        let r2 = req(i(0), 0, LockMode::Read);
        assert_eq!(p.request(&view, r2), Decision::Grant);
        assert_eq!(p.grant_log(), &[(r, GrantRule::Lc1), (r2, GrantRule::Lc2)]);
        assert_eq!(ProtocolFor::<StaticView>::name(&p), "PCP-DA");
        assert!(!ProtocolFor::<StaticView>::may_abort(&p));
    }

    #[test]
    fn literal_variant_names_itself() {
        let p = PcpDa::paper_literal();
        assert_eq!(ProtocolFor::<StaticView>::name(&p), "PCP-DA-literal");
    }
}
