//! Bamboo: 2PL-HP with early release of write locks.
//!
//! 2PL-HP over the active locks (wound all strictly-lower-priority
//! conflicting holders, else block — the [`TwoPlHp`] rule itself); a
//! *retired* chain is always acquirable — the requester is gated on the
//! latest retiree, whatever the priorities (the retire policy and the
//! commit gate are in [`crate::retire`]). The priority inversion at the
//! gate is bounded (the retiree is past its writes), and granting
//! preserves the retiree's completed work plus everything its dirty
//! readers built on it. Gate waits can close cycles with lock waits, so
//! `ProtocolKind::may_deadlock` is true and drivers run it with the
//! engine's deadlock resolution. After "Releasing Locks As Early As You
//! Can" (Guo et al.).

use crate::retire::retire_candidates;
use crate::TwoPlHp;
use rtdb_core::{Decision, EngineView, LockRequest, ProtocolFor};
use rtdb_types::{InstanceId, ItemId};

/// 2PL High Priority over active locks, early release of write locks
/// into the retired chains; a retired chain is always acquirable — the
/// requester is gated on the latest retiree, whatever the priorities.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bamboo;

impl Bamboo {
    /// New instance.
    pub fn new() -> Self {
        Bamboo
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for Bamboo {
    fn name(&self) -> &'static str {
        "Bamboo"
    }

    /// [`TwoPlHp`]'s rule: a retired writer holds no lock, so it is no
    /// conflict, and a chain with no active holder is granted. The kernel
    /// gates the grantee on the latest retiree, whatever the priorities.
    /// Depending on a lower-priority retiree does invert priority at the
    /// commit gate, but the inversion is bounded — the retiree is past
    /// all its writes and only its compute tail separates it from commit
    /// — whereas wounding it would throw away that completed work *and*
    /// cascade every dirty reader it already served, which is precisely
    /// the hotspot work early release exists to save.
    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        TwoPlHp.request(view, req)
    }

    fn retires(&mut self, view: &V, who: InstanceId, completed_step: usize) -> Vec<ItemId> {
        retire_candidates(view, who, completed_step)
    }

    fn may_abort(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{LockMode, SetBuilder, Step, TransactionTemplate, TxnId, Value};

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

    fn set() -> rtdb_types::TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "H",
                10,
                vec![Step::write(ItemId(0), 1), Step::read(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![Step::write(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn active_conflicts_follow_hp() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Bamboo::new();
        view.grant(i(1), ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Write)),
            Decision::AbortHolders {
                victims: [i(1)].into()
            }
        );
        view.release_all(i(1));
        view.grant(i(0), ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Read)),
            Decision::Block {
                blockers: [i(0)].into()
            }
        );
    }

    #[test]
    fn retired_chain_grants_in_both_priority_directions() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Bamboo::new();
        // High-priority txn 0 retired its write of item 0: a
        // lower-priority requester acquires over it (the kernel will
        // gate it on txn 0).
        view.retire(i(0), ItemId(0), Value(7));
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Write)),
            Decision::Grant(None)
        );
        // The reverse direction grants too: a high-priority requester
        // depends on the lower-priority latest retiree rather than
        // wounding its completed work (the inversion at the gate is
        // bounded by the retiree's compute tail).
        let mut view = StaticView::new(&set);
        view.retire(i(1), ItemId(0), Value(7));
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::Grant(None)
        );
    }

    #[test]
    fn retires_write_locks_past_last_access_only() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Bamboo::new();
        // Txn 1: W(x) then W(y). After step 0, x is done — retire it.
        view.grant(i(1), ItemId(0), LockMode::Write);
        assert_eq!(
            ProtocolFor::retires(&mut p, &view, i(1), 0),
            vec![ItemId(0)]
        );
        // Read locks never retire: txn 0 after its last step holds
        // W(x) (already releasable) — but a read lock on y stays.
        let mut view = StaticView::new(&set);
        view.grant(i(0), ItemId(1), LockMode::Read);
        assert!(ProtocolFor::retires(&mut p, &view, i(0), 1).is_empty());
        assert!(ProtocolFor::<StaticView>::may_abort(&p));
    }
}
