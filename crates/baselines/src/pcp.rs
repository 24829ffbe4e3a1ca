//! The original priority ceiling protocol (Sha, Rajkumar, Lehoczky —
//! the paper's reference \[16\]), applied to data items.
//!
//! One absolute ceiling per item (`Aceil(x)`), exclusive access semantics
//! (no read sharing), and the single rule `P_i > Sysceil_i` where
//! `Sysceil_i` is the highest `Aceil` over items locked by others. The
//! ceiling test subsumes conflict detection: every transaction accessing
//! `x` has priority at most `Aceil(x)`, so any second access to a locked
//! item fails the test regardless of mode.

use rtdb_core::{CeilingFlavor, Decision, EngineView, LockRequest, ProtocolFor};

/// The original PCP (stateless).
#[derive(Debug, Default, Clone, Copy)]
pub struct Pcp;

impl Pcp {
    /// New instance.
    pub fn new() -> Self {
        Pcp
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for Pcp {
    fn name(&self) -> &'static str {
        "PCP"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let (ceilings, locks) = (view.ceilings(), view.locks());
        if ceilings
            .pcp_sysceil_level(locks, req.who)
            .cleared_by(view.base_priority(req.who))
        {
            Decision::Grant(None)
        } else {
            let sys = ceilings.pcp_sysceil(locks, req.who);
            Decision::block_on(req.who, sys.holders.iter().copied())
        }
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        Some(CeilingFlavor::Pcp)
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        view.ceilings()
            .pcp_sysceil_level(view.locks(), rtdb_core::protocol::ceiling_observer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{InstanceId, ItemId, LockMode, SetBuilder, Step, TransactionTemplate, TxnId};

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

    #[test]
    fn no_read_sharing_under_pcp() {
        // Both templates only READ x; under RW-PCP they could share, under
        // PCP the second is blocked by the absolute ceiling.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let mut p = Pcp::new();
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Read)),
            Decision::Grant(None)
        );
        view.grant(i(1), ItemId(0), LockMode::Read);
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::Block {
                blockers: [i(1)].into()
            }
        );
    }

    #[test]
    fn unrelated_items_below_ceiling_are_blocked_too() {
        // Ceiling blocking: T2's item y is free but Aceil(x)=P1 >= P2.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![Step::read(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "T3",
                10,
                vec![Step::write(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let mut p = Pcp::new();
        view.grant(i(2), ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(i(1), 1, LockMode::Read)),
            Decision::Block {
                blockers: [i(2)].into()
            }
        );
    }

    #[test]
    fn higher_priority_than_ceiling_proceeds() {
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![Step::read(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "T3",
                10,
                vec![Step::write(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let mut p = Pcp::new();
        view.grant(i(2), ItemId(0), LockMode::Write);
        // T1 accesses y; Aceil(x) = P2 < P1 -> grant.
        assert_eq!(
            p.request(&view, req(i(0), 1, LockMode::Read)),
            Decision::Grant(None)
        );
    }
}
