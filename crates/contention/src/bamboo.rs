//! Bamboo: 2PL-HP with early release of write locks.

use crate::{conflict_holders, retire_candidates};
use rtdb_core::{Decision, EngineView, LockRequest, ProtocolFor};
use rtdb_types::{InstanceId, ItemId};

/// 2PL High Priority over active locks, early release of write locks
/// into the retired list; a retired chain is always acquirable — the
/// requester takes a commit dependency on the latest retiree, whatever
/// the priorities. See the crate docs for the shared retire policy and
/// the engine-side dependency machinery.
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

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let conflicts = conflict_holders(view, req);
        let p_req = view.base_priority(req.who);
        if !conflicts.is_empty() {
            // Active conflicts: plain 2PL-HP. Wound only if *every*
            // holder is strictly lower priority (aborting a subset
            // would not clear the conflict).
            return if conflicts.iter().all(|&h| view.base_priority(h) < p_req) {
                Decision::AbortHolders {
                    victims: conflicts.into_iter().collect(),
                }
            } else {
                Decision::block_on(req.who, conflicts)
            };
        }
        // No active conflict. A retired chain is always acquirable: the
        // engine registers a commit dependency on the latest retiree at
        // grant, whatever the priorities. Depending on a lower-priority
        // retiree does invert priority at the commit gate, but the
        // inversion is bounded — the retiree is past all its writes and
        // only its compute tail separates it from commit — whereas
        // wounding it would throw away that completed work *and*
        // cascade every dirty reader it already served, which is
        // precisely the hotspot work early release exists to save.
        Decision::Grant
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
                victims: vec![i(1)]
            }
        );
        view.release_all(i(1));
        view.grant(i(0), ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Read)),
            Decision::Block {
                blockers: vec![i(0)]
            }
        );
    }

    #[test]
    fn retired_chain_grants_in_both_priority_directions() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Bamboo::new();
        // High-priority txn 0 retired its write of item 0: a
        // lower-priority requester acquires over it (engine will take
        // the commit dependency).
        view.deps_mut().retire(i(0), ItemId(0), Value(7));
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Write)),
            Decision::Grant
        );
        // The reverse direction grants too: a high-priority requester
        // depends on the lower-priority latest retiree rather than
        // wounding its completed work (the inversion at the gate is
        // bounded by the retiree's compute tail).
        let mut view = StaticView::new(&set);
        view.deps_mut().retire(i(1), ItemId(0), Value(7));
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::Grant
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
