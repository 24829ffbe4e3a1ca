//! RW-PCP: the read/write priority ceiling protocol (Sha, Rajkumar, Son,
//! Chang — the paper's reference \[17\]).
//!
//! Each item carries two static ceilings: `Wceil(x)` (highest priority
//! that may write `x`) and `Aceil(x)` (highest priority that may read or
//! write `x`). At run time the *r/w ceiling* is
//!
//! * `RWceil(x) = Aceil(x)` while `x` is write-locked,
//! * `RWceil(x) = Wceil(x)` while `x` is read-locked.
//!
//! `Sysceil_i` is the highest `RWceil` over items locked by transactions
//! other than `T_i`, and the single locking rule is `P_i > Sysceil_i`.
//! No explicit conflict check is needed: every transaction that could
//! access `x` in a conflicting mode has priority at most the relevant
//! ceiling, so the ceiling test subsumes conflict detection (paper §2).
//! Blocked requesters are blocked by the holder(s) of the ceiling item,
//! which inherit their priority.

use rtdb_core::{CeilingFlavor, Decision, EngineView, LockRequest, ProtocolFor};

/// The RW-PCP protocol (stateless).
#[derive(Debug, Default, Clone, Copy)]
pub struct RwPcp;

impl RwPcp {
    /// New instance.
    pub fn new() -> Self {
        RwPcp
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for RwPcp {
    fn name(&self) -> &'static str {
        "RW-PCP"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let (ceilings, locks) = (view.ceilings(), view.locks());
        if ceilings
            .rwpcp_sysceil_level(locks, req.who)
            .cleared_by(view.base_priority(req.who))
        {
            Decision::Grant(None)
        } else {
            let sys = ceilings.rwpcp_sysceil(locks, req.who);
            Decision::block_on(req.who, sys.holders.iter().copied())
        }
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        Some(CeilingFlavor::RwPcp)
    }

    fn system_ceiling(&self, view: &V) -> rtdb_types::Ceiling {
        view.ceilings()
            .rwpcp_sysceil_level(view.locks(), rtdb_core::protocol::ceiling_observer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{
        InstanceId, ItemId, LockMode, SetBuilder, Step, TransactionSet, TransactionTemplate, TxnId,
    };

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

    /// Example 1 set: T1: R(x); T2: R(y); T3: W(x).
    fn example1() -> TransactionSet {
        SetBuilder::new()
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
                vec![Step::write(ItemId(0), 3)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn example1_ceiling_blocking_of_t2() {
        // T3 write-locks x => RWceil(x) = Aceil(x) = P1. T2 requests read
        // of the *free* item y and is still blocked: ceiling blocking.
        let set = example1();
        let mut view = StaticView::new(&set);
        let mut p = RwPcp::new();
        assert_eq!(
            p.request(&view, req(i(2), 0, LockMode::Write)),
            Decision::Grant(None)
        );
        view.grant(i(2), ItemId(0), LockMode::Write);

        let d = p.request(&view, req(i(1), 1, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(2)].into()
            }
        );
    }

    #[test]
    fn example1_conflict_blocking_of_t1() {
        // T1 requests read of x itself: also blocked (P1 !> Aceil(x)=P1).
        let set = example1();
        let mut view = StaticView::new(&set);
        let mut p = RwPcp::new();
        view.grant(i(2), ItemId(0), LockMode::Write);
        let d = p.request(&view, req(i(0), 0, LockMode::Read));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(2)].into()
            }
        );
    }

    #[test]
    fn read_locks_admit_higher_priority_readers_only() {
        // x read by T1 and T3(writes nothing else); Wceil governs.
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![Step::write(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "T3",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let mut p = RwPcp::new();
        // T3 read-locks x: RWceil(x) = Wceil(x) = P2.
        assert_eq!(
            p.request(&view, req(i(2), 0, LockMode::Read)),
            Decision::Grant(None)
        );
        view.grant(i(2), ItemId(0), LockMode::Read);
        // T1 (P1 > P2) may also read-lock x.
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::Grant(None)
        );
        // T2 (the writer, P2 !> P2) is blocked.
        assert_eq!(
            p.request(&view, req(i(1), 0, LockMode::Write)),
            Decision::Block {
                blockers: [i(2)].into()
            }
        );
    }

    #[test]
    fn own_locks_do_not_raise_own_ceiling() {
        let set = example1();
        let mut view = StaticView::new(&set);
        let mut p = RwPcp::new();
        view.grant(i(2), ItemId(0), LockMode::Write);
        // T3 itself may continue locking.
        assert_eq!(
            p.request(&view, req(i(2), 1, LockMode::Read)),
            Decision::Grant(None)
        );
    }

    #[test]
    fn write_write_exclusion_via_aceil() {
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
        let mut p = RwPcp::new();
        view.grant(i(1), ItemId(0), LockMode::Write);
        // A (higher priority) still cannot write-lock x: Aceil(x) = P_A.
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Write)),
            Decision::Block {
                blockers: [i(1)].into()
            }
        );
    }
}
