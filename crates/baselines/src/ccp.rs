//! CCP: the convex ceiling protocol (Nakazato, Lin — the paper's
//! reference \[13\]).
//!
//! CCP follows the original PCP's locking rule (`P_i > Sysceil_i` over
//! absolute ceilings) but releases locks before commit: once a
//! transaction has performed its **last access** to an item `x` and will
//! not access any item with a ceiling higher than or equal to `Aceil(x)`
//! in its remaining steps, it unlocks `x` immediately instead of holding
//! it to commit. The held ceilings therefore form a "convex" (unimodal)
//! profile over the transaction's lifetime, shortening the worst-case
//! blocking of high-priority transactions.
//!
//! Two points where this implementation is deliberately stricter than
//! the paper's one-paragraph description (both were *forced* by this
//! repository's serializability oracles — the looser readings produce
//! non-serializable histories, found by property testing and kept as
//! regression knowledge here):
//!
//! 1. **ties**: an item may not be released while an item with an *equal*
//!    ceiling is still to be locked (two transactions at the same ceiling
//!    can interleave around the releaser and close a serialization
//!    cycle);
//! 2. **lock point**: no release happens before the transaction holds
//!    every lock it will ever need (the 2PL growing phase). Releasing a
//!    read lock before a later lock acquisition lets a conflicting
//!    transaction both observe the released item and be observed through
//!    a later conflict — the classic non-2PL anomaly; the ceiling
//!    machinery alone does not prevent it.
//!
//! Because a written item may be unlocked before commit, later readers
//! must observe the value: the protocol declares
//! [`UpdateModel::InstallOnEarlyRelease`], instructing the engine to
//! install the staged write at the moment of the early unlock.
//!
//! The paper describes CCP only in prose (§2); this implementation is the
//! direct transcription of that prose, documented as a substitution in
//! DESIGN.md.

use rtdb_core::{CeilingFlavor, Decision, EngineView, LockRequest, ProtocolFor, UpdateModel};
use rtdb_types::{InstanceId, ItemId, LockMode};

/// The convex ceiling protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ccp;

impl Ccp {
    /// New instance.
    pub fn new() -> Self {
        Ccp
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for Ccp {
    fn name(&self) -> &'static str {
        "CCP"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let p_i = view.base_priority(req.who);
        let sys = view.ceilings().pcp_sysceil(view.locks(), req.who);
        if sys.ceiling.cleared_by(p_i) {
            Decision::Grant
        } else {
            Decision::block_on(req.who, sys.holders.iter().copied())
        }
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        Some(CeilingFlavor::Pcp)
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        view.ceilings()
            .pcp_sysceil(view.locks(), rtdb_core::protocol::ceiling_observer())
            .ceiling
    }

    fn early_releases(
        &mut self,
        view: &V,
        who: InstanceId,
        completed_step: usize,
    ) -> Vec<(ItemId, LockMode)> {
        let template = view.set().template(who.txn);
        let remaining = &template.steps[completed_step + 1..];

        // Lock point: every remaining access must already be covered by a
        // held lock; otherwise no early release (see the module docs).
        let at_lock_point = remaining.iter().all(|s| match s.op.access() {
            None => true,
            Some((item, rtdb_types::LockMode::Read)) => {
                view.locks().holds(who, item, LockMode::Read)
                    || view.locks().holds(who, item, LockMode::Write)
            }
            Some((item, rtdb_types::LockMode::Write)) => {
                view.locks().holds(who, item, LockMode::Write)
            }
        });
        if !at_lock_point {
            return Vec::new();
        }

        // The highest ceiling this transaction will still access.
        let future_ceiling = remaining
            .iter()
            .filter_map(|s| s.op.item())
            .map(|x| view.ceilings().aceil(x))
            .max()
            .unwrap_or(rtdb_types::Ceiling::Dummy);

        // Whether any remaining step still accesses `item`.
        let still_needed = |item: ItemId| remaining.iter().any(|s| s.op.item() == Some(item));

        // Collect held locks eligible for early release: last use is past
        // and every remaining ceiling is *strictly* lower. (The paper's
        // prose — "will not lock any data items with a higher priority
        // ceiling" — is ambiguous about ties; releasing on a tie is
        // unsafe: two transactions at the same ceiling can then interleave
        // around the releaser and close a serialization cycle, which this
        // repository's property tests demonstrated. Strictly-lower keeps
        // the held-ceiling profile convex in the strong sense and all
        // histories serializable.)
        let no_future_data = remaining.iter().all(|s| s.op.item().is_none());
        let mut out = Vec::new();
        for lock in view.locks().held_by(who) {
            if still_needed(lock.item) {
                continue;
            }
            let c = view.ceilings().aceil(lock.item);
            if c > future_ceiling || no_future_data {
                out.push((lock.item, lock.mode));
            }
        }
        out
    }

    fn update_model(&self) -> UpdateModel {
        UpdateModel::InstallOnEarlyRelease
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{InstanceId, SetBuilder, Step, TransactionTemplate, TxnId};

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    #[test]
    fn releases_high_ceiling_item_at_lock_point() {
        // T2: R(a), R(b), C, C with Aceil(a) > Aceil(b): once both locks
        // are held and the a-step is done, a is released before the
        // computation tail (the convex-profile benefit), and b goes at
        // the end of its own last access.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![Step::read(ItemId(0), 1)],
            )) // raises Aceil(a)
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![
                    Step::read(ItemId(0), 1),
                    Step::read(ItemId(1), 1),
                    Step::compute(1),
                    Step::compute(1),
                ],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        view.grant(i(1), ItemId(0), LockMode::Read);
        let mut p = Ccp::new();
        // Before the lock point (b not yet held): nothing is released.
        assert!(p.early_releases(&view, i(1), 0).is_empty());
        // After the b-step both locks are held and neither is needed
        // again: both are released before the compute tail.
        view.grant(i(1), ItemId(1), LockMode::Read);
        let rel = p.early_releases(&view, i(1), 1);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn holds_lower_ceiling_item_while_equal_or_higher_access_remains() {
        // T2: R(b), R(a), R(b') pattern via: R(b), R(a), then a compute;
        // after step 0, a (higher ceiling) is not yet locked -> nothing
        // releases (lock point); after step 1 both held, b's ceiling is
        // *lower* than nothing remaining -> both release.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
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
        view.grant(i(1), ItemId(1), LockMode::Read);
        let mut p = Ccp::new();
        assert!(p.early_releases(&view, i(1), 0).is_empty());
        view.grant(i(1), ItemId(0), LockMode::Read);
        let rel = p.early_releases(&view, i(1), 1);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn holds_items_needed_by_equal_ceiling_future_access() {
        // T1: R(a), R(c), C where Aceil(a) == Aceil(c) (both touched by
        // the same higher template): after the a-step (lock point not yet
        // reached: c unheld) nothing releases; once c is held, a may not
        // release while an *equal*-ceiling access (c itself) remains —
        // but c's access is the current step, so both go at step 1.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::read(ItemId(0), 1), Step::read(ItemId(2), 1)],
            ))
            .with(TransactionTemplate::new(
                "T",
                10,
                vec![
                    Step::read(ItemId(0), 1),
                    Step::read(ItemId(2), 1),
                    Step::compute(1),
                ],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        view.grant(i(1), ItemId(0), LockMode::Read);
        let mut p = Ccp::new();
        assert!(p.early_releases(&view, i(1), 0).is_empty());
        view.grant(i(1), ItemId(2), LockMode::Read);
        assert_eq!(p.early_releases(&view, i(1), 1).len(), 2);
    }

    #[test]
    fn item_still_needed_later_is_kept() {
        // T1: R(x), C, W(x) — x read at step 0 but written at step 2.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![
                    Step::read(ItemId(0), 1),
                    Step::compute(1),
                    Step::write(ItemId(0), 1),
                ],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        view.grant(i(0), ItemId(0), LockMode::Read);
        let mut p = Ccp::new();
        assert!(p.early_releases(&view, i(0), 0).is_empty());
    }

    #[test]
    fn uses_install_on_early_release_model() {
        assert_eq!(
            ProtocolFor::<StaticView>::update_model(&Ccp::new()),
            UpdateModel::InstallOnEarlyRelease
        );
        assert_eq!(ProtocolFor::<StaticView>::name(&Ccp::new()), "CCP");
    }
}
