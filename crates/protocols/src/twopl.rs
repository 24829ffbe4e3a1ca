//! Strict two-phase locking baselines.
//!
//! * [`TwoPlPi`] — 2PL with priority inheritance: classic read/write lock
//!   compatibility, conflicting requests block and the holders inherit the
//!   requester's priority. Deadlocks are possible; the engine detects them
//!   on the wait-for graph and (when configured) resolves by aborting the
//!   lowest-priority instance on the cycle.
//! * [`TwoPlHp`] — 2PL High Priority (Abbott & Garcia-Molina style):
//!   a conflict is resolved in favour of the higher-priority transaction.
//!   If the requester's priority exceeds every conflicting holder's, the
//!   holders are aborted and restarted; otherwise the requester blocks.
//!   All wait-for edges then point at higher-priority holders, so no cycle
//!   can form — deadlock-free, at the price of restarts, which is exactly
//!   the trade-off the paper's §2 discusses (restart overheads break the
//!   schedulability analysis).

use rtdb_core::{Decision, EngineView, Holders, LockRequest, ProtocolFor};
use rtdb_types::LockMode;

/// Conflicting holders of `req` under classical r/w lock semantics,
/// ascending and each once: the other write holders of the item, and for
/// a write request its other read holders too. The 2PL rule, shared with
/// Brook-2PL (whose retired writers hold no lock, so they are no
/// conflict). Allocates only past [`Holders::INLINE`] holders.
pub(crate) fn conflict_holders<V: EngineView + ?Sized>(view: &V, req: LockRequest) -> Holders {
    let locks = view.locks();
    let mut out: Holders = locks.writers_other_than(req.item, req.who).collect();
    if req.mode == LockMode::Write {
        out.extend(locks.readers_other_than(req.item, req.who));
    }
    out
}

/// Strict 2PL with priority inheritance.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwoPlPi;

impl TwoPlPi {
    /// New instance.
    pub fn new() -> Self {
        TwoPlPi
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for TwoPlPi {
    fn name(&self) -> &'static str {
        "2PL-PI"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let conflicts = conflict_holders(view, req);
        if conflicts.is_empty() {
            Decision::Grant(None)
        } else {
            Decision::Block {
                blockers: conflicts,
            }
        }
    }
}

/// 2PL High Priority: abort lower-priority conflicting holders.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwoPlHp;

impl TwoPlHp {
    /// New instance.
    pub fn new() -> Self {
        TwoPlHp
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for TwoPlHp {
    fn name(&self) -> &'static str {
        "2PL-HP"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let conflicts = conflict_holders(view, req);
        if conflicts.is_empty() {
            return Decision::Grant(None);
        }
        let p_req = view.base_priority(req.who);
        if conflicts.iter().all(|&h| view.base_priority(h) < p_req) {
            Decision::AbortHolders { victims: conflicts }
        } else {
            Decision::Block {
                blockers: conflicts,
            }
        }
    }

    fn may_abort(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{InstanceId, ItemId, SetBuilder, Step, TransactionTemplate, TxnId};

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
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "L",
                10,
                vec![Step::write(ItemId(0), 1), Step::read(ItemId(1), 1)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn twopl_pi_read_read_shares() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = TwoPlPi::new();
        view.grant(i(1), ItemId(1), LockMode::Read);
        assert_eq!(
            p.request(&view, req(i(0), 1, LockMode::Read)),
            Decision::Grant(None)
        );
    }

    #[test]
    fn twopl_pi_blocks_on_conflicts_regardless_of_priority() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = TwoPlPi::new();
        view.grant(i(1), ItemId(0), LockMode::Write);
        // Even the highest-priority transaction blocks under PI.
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::Block {
                blockers: [i(1)].into()
            }
        );
        // Write request vs read holder also blocks.
        view.grant(i(0), ItemId(1), LockMode::Read);
        assert_eq!(
            p.request(&view, req(i(1), 1, LockMode::Write)),
            Decision::Block {
                blockers: [i(0)].into()
            }
        );
        assert!(!ProtocolFor::<StaticView>::may_abort(&p));
    }

    #[test]
    fn twopl_hp_aborts_lower_priority_holders() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = TwoPlHp::new();
        view.grant(i(1), ItemId(0), LockMode::Write);
        assert_eq!(
            p.request(&view, req(i(0), 0, LockMode::Read)),
            Decision::AbortHolders {
                victims: [i(1)].into()
            }
        );
        assert!(ProtocolFor::<StaticView>::may_abort(&p));
    }

    #[test]
    fn twopl_hp_blocks_behind_higher_priority_holders() {
        let set = set();
        let mut view = StaticView::new(&set);
        let mut p = TwoPlHp::new();
        view.grant(i(0), ItemId(1), LockMode::Read);
        assert_eq!(
            p.request(&view, req(i(1), 1, LockMode::Write)),
            Decision::Block {
                blockers: [i(0)].into()
            }
        );
    }

    #[test]
    fn twopl_hp_mixed_holders_block() {
        // One holder higher, one lower than the requester: must block
        // (an abort of only the lower one would not clear the conflict).
        let set = SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                10,
                vec![Step::write(ItemId(0), 1)],
            ))
            .with(TransactionTemplate::new(
                "C",
                10,
                vec![Step::read(ItemId(0), 1)],
            ))
            .build()
            .unwrap();
        let mut view = StaticView::new(&set);
        let mut p = TwoPlHp::new();
        view.grant(i(0), ItemId(0), LockMode::Read); // higher than B
        view.grant(i(2), ItemId(0), LockMode::Read); // lower than B
        let d = p.request(&view, req(i(1), 0, LockMode::Write));
        assert_eq!(
            d,
            Decision::Block {
                blockers: [i(0), i(2)].into()
            }
        );
    }
}
