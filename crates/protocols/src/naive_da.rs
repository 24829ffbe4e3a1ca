//! Naive-DA: the deliberately weakened dynamic-adjustment protocol of the
//! paper's Example 5.
//!
//! Section 7 observes that either of two conditions preserves single
//! blocking:
//!
//! 1. `P_i > Sysceil_i` (PCP-DA's LC2), or
//! 2. `P_i ≥ HPW(x)`,
//!
//! but that condition (2) **cannot avoid deadlocks** on its own — Example 5
//! constructs a two-transaction deadlock. LC3/LC4 restrict condition (2)
//! with the `T*` clauses precisely to exclude it. This protocol grants
//! read locks under the *unrestricted* disjunction (1) ∨ (2) (and write
//! locks under LC1), reproducing the deadlock so the engine's wait-for
//! detector and the Example 5 experiment can demonstrate it.

use crate::pcpda::ceiling_holders;
use rtdb_core::{CeilingFlavor, Decision, EngineView, LockRequest, ProtocolFor};
use rtdb_types::{Ceiling, LockMode};

/// The deliberately deadlock-prone Example 5 protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveDa;

impl NaiveDa {
    /// New instance.
    pub fn new() -> Self {
        NaiveDa
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for NaiveDa {
    fn name(&self) -> &'static str {
        "Naive-DA"
    }

    fn request(&mut self, view: &V, req: LockRequest) -> Decision {
        let locks = view.locks();
        let ceilings = view.ceilings();
        let p_i = view.base_priority(req.who);

        match req.mode {
            LockMode::Write => {
                if locks.no_rlock_by_others(req.item, req.who) {
                    Decision::Grant(None)
                } else {
                    Decision::block_on(req.who, locks.readers_other_than(req.item, req.who))
                }
            }
            LockMode::Read => {
                // Condition (1).
                if ceilings.pcpda_sysceil_level(locks, req.who).cleared_by(p_i) {
                    return Decision::Grant(None);
                }
                // Condition (2): P_i >= HPW(x), with no further safeguard.
                let hpw = ceilings.wceil(req.item);
                if hpw <= Ceiling::At(p_i) {
                    return Decision::Grant(None);
                }
                // Blocked: per Lemma 4's shape, blockers are holders of
                // read-locked items at or above P_i.
                let blockers = ceiling_holders(locks, ceilings, req.who, p_i);
                Decision::block_on(req.who, blockers)
            }
        }
    }

    fn ceiling_flavor(&self) -> Option<CeilingFlavor> {
        Some(CeilingFlavor::PcpDa)
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

    /// Example 5 set: T_H: R(y),W(x); T_L: R(x),W(y).
    fn example5() -> rtdb_types::TransactionSet {
        SetBuilder::new()
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
            .unwrap()
    }

    #[test]
    fn example5_lock_sequence_reaches_circular_wait() {
        let set = example5();
        let mut view = StaticView::new(&set);
        let mut p = NaiveDa::new();
        let (th, tl) = (i(0), i(1));

        // T_L read-locks x (condition (1): nothing locked).
        assert_eq!(
            p.request(&view, req(tl, 0, LockMode::Read)),
            Decision::Grant(None)
        );
        view.grant(tl, ItemId(0), LockMode::Read);
        view.record_read(tl, ItemId(0));

        // T_H read-locks y: condition (1) fails (Sysceil = Wceil(x) = P_H),
        // condition (2) P_H >= HPW(y) = P_L grants -- the unsafe grant
        // PCP-DA's LC3/LC4 forbid.
        assert_eq!(
            p.request(&view, req(th, 1, LockMode::Read)),
            Decision::Grant(None)
        );
        view.grant(th, ItemId(1), LockMode::Read);
        view.record_read(th, ItemId(1));

        // T_H requests write x: blocked by T_L's read lock.
        assert_eq!(
            p.request(&view, req(th, 0, LockMode::Write)),
            Decision::Block {
                blockers: [tl].into()
            }
        );

        // T_L (inheriting P_H) requests write y: blocked by T_H -> cycle.
        assert_eq!(
            p.request(&view, req(tl, 1, LockMode::Write)),
            Decision::Block {
                blockers: [th].into()
            }
        );
    }

    #[test]
    fn pcpda_blocks_the_unsafe_grant_instead() {
        use crate::PcpDa;
        let set = example5();
        let mut view = StaticView::new(&set);
        let mut p = PcpDa::new();
        let (th, tl) = (i(0), i(1));

        assert_eq!(
            p.request(&view, req(tl, 0, LockMode::Read)),
            Decision::Grant(Some(rtdb_core::GrantRule::Lc2))
        );
        view.grant(tl, ItemId(0), LockMode::Read);
        view.record_read(tl, ItemId(0));

        // Under PCP-DA, T_H's read of y is DENIED (LC3 fails on
        // y ∈ WriteSet(T*), LC4 fails on priority equality), so the
        // deadlock never forms.
        assert_eq!(
            p.request(&view, req(th, 1, LockMode::Read)),
            Decision::Block {
                blockers: [tl].into()
            }
        );
    }
}
