//! Experiment E6: Table 1 — the PCP-DA lock compatibility table — checked
//! both as the pure decision function and *behaviourally* against the
//! live protocol through the simulator.

use rtdb::prelude::*;
use rtdb::protocols::compat::{compatible, render_table1, CompatInput};

/// The four cells of Table 1 as the paper prints them.
#[test]
fn table1_cells() {
    let case = |held, requested, disjoint| {
        compatible(CompatInput {
            held,
            requested,
            holder_reads_disjoint_from_requester_writes: disjoint,
        })
    };
    // held Read:  read OK, write NOK
    assert!(case(LockMode::Read, LockMode::Read, true));
    assert!(case(LockMode::Read, LockMode::Read, false));
    assert!(!case(LockMode::Read, LockMode::Write, true));
    assert!(!case(LockMode::Read, LockMode::Write, false));
    // held Write: read OK* (side condition), write OK
    assert!(case(LockMode::Write, LockMode::Read, true));
    assert!(!case(LockMode::Write, LockMode::Read, false));
    assert!(case(LockMode::Write, LockMode::Write, true));
    assert!(case(LockMode::Write, LockMode::Write, false));
}

#[test]
fn table1_renders_as_printed() {
    let t = render_table1();
    assert!(t.contains("Read-lock"));
    assert!(t.contains("OK*"));
    assert!(t.contains("NOK"));
    assert!(t.contains("DataRead(T_L) ∩ WriteSet(T_H) = ∅"));
}

/// Behavioural check, cell by cell, through the simulator. Two
/// transactions with overlapping accesses; the lower-priority one arrives
/// first and locks, the higher-priority one then requests.
mod behavioural {
    use super::*;
    use rtdb::cc::Effect;

    /// Build a 2-transaction set: L (lower priority) performs `l_steps`
    /// starting at 0; H (higher priority) performs `h_steps` starting at
    /// `h_offset`.
    fn duel(h_steps: Vec<Step>, l_steps: Vec<Step>, h_offset: u64) -> (TransactionSet, RunResult) {
        let set = SetBuilder::new()
            .with(
                TransactionTemplate::new("H", 50, h_steps)
                    .with_offset(h_offset)
                    .with_instances(1),
            )
            .with(TransactionTemplate::new("L", 50, l_steps).with_instances(1))
            .build()
            .unwrap();
        let r = Engine::new(&set, SimConfig::default())
            .run(&mut PcpDa::new())
            .unwrap();
        (set, r)
    }

    fn h_was_blocked(r: &RunResult) -> bool {
        r.trace
            .events()
            .iter()
            .any(|(_, e)| matches!(e, Effect::Parked(req, _) if req.who.txn == TxnId(0)))
    }

    /// Read held / read requested: shared — H proceeds.
    #[test]
    fn read_read_shares() {
        let x = ItemId(0);
        let (_, r) = duel(vec![Step::read(x, 1)], vec![Step::read(x, 3)], 1);
        assert!(!h_was_blocked(&r));
        assert_eq!(r.outcome, RunOutcome::Completed);
    }

    /// Read held / write requested: NOK — H blocks until L commits.
    #[test]
    fn read_write_blocks() {
        let x = ItemId(0);
        let (_, r) = duel(
            vec![Step::write(x, 1)],
            vec![Step::read(x, 3), Step::compute(1)],
            1,
        );
        assert!(h_was_blocked(&r));
        // H completes only after L (L commits first).
        assert_eq!(
            r.history.commit_order().first().map(|i| i.txn),
            Some(TxnId(1))
        );
    }

    /// Write held / read requested, side condition HOLDS (L read nothing
    /// H writes): OK* — H preempts and reads the pre-image.
    #[test]
    fn write_read_preempts_when_side_condition_holds() {
        let x = ItemId(0);
        let (set, r) = duel(
            vec![Step::read(x, 1)],
            vec![Step::write(x, 3), Step::compute(1)],
            1,
        );
        assert!(!h_was_blocked(&r));
        // H commits first: the dynamically adjusted order is H -> L.
        assert_eq!(
            r.history.commit_order().first().map(|i| i.txn),
            Some(TxnId(0))
        );
        assert!(r.replay_check(&set).is_serializable());
    }

    /// Write held / read requested, side condition FAILS (L already read
    /// y which H writes): H must block (it could not commit before L).
    #[test]
    fn write_read_blocks_when_side_condition_fails() {
        let x = ItemId(0);
        let y = ItemId(1);
        // L: Read(y) then Write(x)...; H: Read(x) then Write(y).
        let (set, r) = duel(
            vec![Step::read(x, 1), Step::write(y, 1)],
            vec![Step::read(y, 1), Step::write(x, 1), Step::compute(2)],
            2, // H arrives after L write-locked x
        );
        assert!(h_was_blocked(&r));
        assert_eq!(r.outcome, RunOutcome::Completed); // and no deadlock
        assert!(r.replay_check(&set).is_serializable());
    }

    /// Write held / write requested: blind writes coexist; commit order
    /// serializes them.
    #[test]
    fn write_write_coexists() {
        let x = ItemId(0);
        let (set, r) = duel(
            vec![Step::write(x, 1)],
            vec![Step::write(x, 3), Step::compute(1)],
            1,
        );
        assert!(!h_was_blocked(&r));
        assert_eq!(r.outcome, RunOutcome::Completed);
        // Both committed; the final value is the later committer's (L).
        assert_eq!(r.history.committed(), 2);
        assert!(r.replay_check(&set).is_serializable());
        let index = r.history.committed_index();
        let seq = index.installs(x);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].1.txn, TxnId(0)); // H commits/installs first
        assert_eq!(seq[1].1.txn, TxnId(1));
        let final_db = r.db.read(x);
        assert_eq!(final_db.writer.map(|w| w.txn), Some(TxnId(1)));
    }
}
