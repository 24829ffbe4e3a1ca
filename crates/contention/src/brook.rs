//! Brook-2PL: deadlock-free early release via a static seniority order.

use crate::{conflict_holders, retire_candidates, senior};
use rtdb_core::{Decision, EngineView, LockRequest, ProtocolFor};
use rtdb_types::{InstanceId, ItemId};

/// Early-release 2PL with wait-die conflict resolution over the
/// seniority order of `crate::senior`: a requester facing a senior
/// conflicting holder (or a senior latest retiree) aborts itself
/// ([`Decision::AbortSelf`]); facing only juniors it waits — or, over a
/// retired chain, acquires and lets the engine register the commit
/// dependency. Every lock-wait edge and every commit-gate edge then
/// points senior → junior (a dependency on a retiree is only taken when
/// the retiree is junior), so the combined wait graph is acyclic and no
/// deadlock can form — without the wound machinery Bamboo needs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Brook2Pl;

impl Brook2Pl {
    /// New instance.
    pub fn new() -> Self {
        Brook2Pl
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for Brook2Pl {
    fn name(&self) -> &'static str {
        "Brook-2PL"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let conflicts = conflict_holders(view, req);
        if !conflicts.is_empty() {
            let seniors: Vec<InstanceId> = conflicts
                .iter()
                .copied()
                .filter(|&h| senior(h, req.who))
                .collect();
            return if seniors.is_empty() {
                // The requester is senior to every conflicting holder:
                // waiting keeps all edges senior → junior.
                Decision::block_on(req.who, conflicts)
            } else {
                // Wait-die: the junior party restarts. The engine holds
                // the restart until a blocker commits or aborts, so the
                // retry is not a same-instant livelock.
                Decision::AbortSelf { blockers: seniors }
            };
        }
        if let Some(deps) = view.deps() {
            if let Some((latest, _)) = deps.latest_retired(req.item) {
                if latest.owner != req.who && senior(latest.owner, req.who) {
                    // A commit dependency on a *senior* retiree would
                    // point junior → senior in the gate graph — the one
                    // edge direction that could close a cycle. Die
                    // instead and retry once the retiree resolves.
                    return Decision::AbortSelf {
                        blockers: vec![latest.owner],
                    };
                }
            }
        }
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
    use rtdb_types::{ItemId, LockMode, SetBuilder, Step, TransactionTemplate, TxnId, Value};

    fn inst(t: u32, seq: u32) -> InstanceId {
        InstanceId::new(TxnId(t), seq)
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
                "A",
                10,
                vec![Step::write(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                10,
                vec![Step::write(ItemId(0), 1), Step::read(ItemId(1), 1)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn seniority_is_arrival_then_template() {
        assert!(senior(inst(1, 0), inst(0, 1))); // earlier arrival wins
        assert!(senior(inst(0, 0), inst(1, 0))); // tie: higher-priority template wins
        assert!(!senior(inst(1, 0), inst(1, 0)));
    }

    #[test]
    fn junior_requester_dies_senior_requester_waits() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Brook2Pl::new();
        let sr = inst(0, 0);
        let jr = inst(1, 0);
        view.grant(sr, ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(jr, 0, LockMode::Write)),
            Decision::AbortSelf { blockers: vec![sr] }
        );
        view.release_all(sr);
        view.grant(jr, ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(sr, 0, LockMode::Read)),
            Decision::Block { blockers: vec![jr] }
        );
    }

    #[test]
    fn retired_chain_dies_on_senior_retiree_grants_over_junior() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Brook2Pl::new();
        let sr = inst(0, 0);
        let jr = inst(1, 0);
        view.deps_mut().retire(sr, ItemId(0), Value(3));
        assert_eq!(
            p.request(&view, req(jr, 0, LockMode::Write)),
            Decision::AbortSelf { blockers: vec![sr] }
        );
        let mut view = StaticView::new(&set);
        view.deps_mut().retire(jr, ItemId(0), Value(3));
        assert_eq!(
            p.request(&view, req(sr, 0, LockMode::Write)),
            Decision::Grant
        );
        assert!(ProtocolFor::<StaticView>::may_abort(&p));
    }

    #[test]
    fn retires_mirror_bamboo_policy() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = Brook2Pl::new();
        let a = inst(0, 0);
        view.grant(a, ItemId(0), LockMode::Write);
        view.grant(a, ItemId(1), LockMode::Write);
        // After step 0 only item 0 is past its last access.
        assert_eq!(ProtocolFor::retires(&mut p, &view, a, 0), vec![ItemId(0)]);
        // After the final step both remaining write locks retire.
        assert_eq!(
            ProtocolFor::retires(&mut p, &view, a, 1),
            vec![ItemId(0), ItemId(1)]
        );
    }
}
