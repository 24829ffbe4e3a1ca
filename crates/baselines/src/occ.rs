//! OCC-BC: optimistic concurrency control with broadcast commit (forward
//! validation) under priority scheduling.
//!
//! The paper's §2 contrasts the ceiling protocols against the
//! abort-and-restart school ([18, 19, 21]): let transactions run without
//! blocking and resolve conflicts at commit time by restarting the
//! invalidated parties. OCC-BC is the canonical representative:
//!
//! * every data access proceeds immediately (no locks ever block);
//! * when a transaction commits, every *active* transaction that has read
//!   an item the committer wrote is invalidated and restarted ("broadcast
//!   commit" / forward validation).
//!
//! The scheme is deadlock-free and blocking-free, but its restarts are
//! unbounded in the worst case — exactly why the paper rules the approach
//! out for *hard* real-time databases: "some cannot even provide the
//! schedulability analysis since they cannot bound the number of
//! abortions that a lower priority transaction may experience".
//! The E9 sweep makes that trade-off measurable.

use rtdb_core::{sorted_disjoint, Decision, EngineView, LockRequest, ProtocolFor};
use rtdb_types::InstanceId;

/// Optimistic concurrency control with broadcast commit.
#[derive(Debug, Default, Clone, Copy)]
pub struct OccBc;

impl OccBc {
    /// New instance.
    pub fn new() -> Self {
        OccBc
    }
}

impl<V: EngineView + ?Sized> ProtocolFor<V> for OccBc {
    fn name(&self) -> &'static str {
        "OCC-BC"
    }

    fn request(&mut self, _view: &V, _req: LockRequest) -> Decision {
        // Optimistic: never block. (The engine still records the "lock";
        // it is inert because this protocol never consults the table.)
        Decision::Grant(None)
    }

    fn commit_victims(&mut self, view: &V, who: InstanceId) -> Vec<InstanceId> {
        let writes = view.staged_write_items(who);
        if writes.is_empty() {
            return Vec::new();
        }
        view.active_instances()
            .iter()
            .copied()
            .filter(|&other| other != who)
            .filter(|&other| !sorted_disjoint(view.data_read(other), writes))
            .collect()
    }

    fn may_abort(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb_core::testkit::StaticView;
    use rtdb_types::{ItemId, LockMode, SetBuilder, Step, TransactionTemplate, TxnId};

    fn i(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    fn set() -> rtdb_types::TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                10,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                10,
                vec![Step::read(ItemId(1), 1), Step::write(ItemId(0), 1)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn never_blocks() {
        let set = set();
        let mut view = StaticView::new(&set);
        view.grant(i(1), ItemId(0), LockMode::Write);
        let mut p = OccBc::new();
        // Even a "conflicting" request proceeds.
        assert_eq!(
            p.request(
                &view,
                LockRequest {
                    who: i(0),
                    item: ItemId(0),
                    mode: LockMode::Write
                }
            ),
            Decision::Grant(None)
        );
        assert!(ProtocolFor::<StaticView>::may_abort(&p));
    }

    #[test]
    fn commit_invalidates_readers_of_written_items() {
        let set = set();
        let mut view = StaticView::new(&set);
        // B read y; A stages a write of y and commits.
        view.record_read(i(1), ItemId(1));
        view.record_staged_write(i(0), ItemId(1));
        let mut p = OccBc::new();
        assert_eq!(p.commit_victims(&view, i(0)), vec![i(1)]);
        // A reader of an unrelated item is spared.
        let mut view2 = StaticView::new(&set);
        view2.record_read(i(1), ItemId(0));
        view2.record_staged_write(i(0), ItemId(1));
        assert!(p.commit_victims(&view2, i(0)).is_empty());
    }

    #[test]
    fn read_only_commits_invalidate_nobody() {
        let set = set();
        let mut view = StaticView::new(&set);
        view.record_read(i(0), ItemId(0));
        view.record_read(i(1), ItemId(0));
        let mut p = OccBc::new();
        assert!(p.commit_victims(&view, i(0)).is_empty());
    }
}
