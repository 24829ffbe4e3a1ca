//! The serial-replay correctness oracle.
//!
//! Theorem 3 of the paper states that every history produced by PCP-DA is
//! serializable, and its proof shows that the **commit order** is a valid
//! serialization order. This module turns that claim into an executable
//! check: re-run the committed instances *serially, in commit order*,
//! re-executing their templates' programs against a fresh database. Because
//! every write value is a pure function of the writer's identity and of
//! everything it has read (see [`rtdb_types::derive_write`]), the serial
//! re-execution must reproduce
//!
//! 1. the exact value observed by every read of the concurrent history, and
//! 2. the exact final database state.
//!
//! Any divergence is a concrete serialization anomaly, reported as a
//! [`ReplayViolation`].
//!
//! [`replay_serial`] replays in commit order; [`replay_in_order`] takes
//! the order as an argument — a topological order of `SG(H)` for CCP, or
//! snapshot readers placed at their stamps — so no caller rebuilds a
//! history to move its commits. Both compare against the final-attempt
//! read slices of the history's [`CommittedIndex`], re-execute through
//! one reused [`Workspace`], and keep the serial store as a dense array
//! indexed by item.

use crate::db::{Database, VersionedValue};
use crate::history::{CommittedIndex, History};
use crate::workspace::Workspace;
use rtdb_types::{InstanceId, ItemId, Operation, Tick, TransactionSet, TxnId, Value};

/// One divergence between the concurrent history and its serial replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayViolation {
    /// A read in the concurrent history observed a different value than the
    /// serial replay produces.
    ReadMismatch {
        /// Who read.
        instance: InstanceId,
        /// Which of the instance's reads diverged (0-based, program order).
        read_index: usize,
        /// Item read.
        item: ItemId,
        /// Value in the concurrent history.
        observed: Value,
        /// Value under serial execution in commit order.
        serial: Value,
    },
    /// The committed instance performed a different number of reads than
    /// its template prescribes — an engine bug, not a protocol anomaly.
    ReadCountMismatch {
        /// Offending instance.
        instance: InstanceId,
        /// Reads in the history.
        observed: usize,
        /// Reads the template performs.
        expected: usize,
    },
    /// Final database states differ on an item.
    FinalStateMismatch {
        /// Item that differs.
        item: ItemId,
        /// Value after the concurrent run.
        observed: Option<Value>,
        /// Value after serial replay.
        serial: Option<Value>,
    },
}

/// Result of a replay check.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// All violations found (empty = the history is view-equivalent to the
    /// serial execution in commit order).
    pub violations: Vec<ReplayViolation>,
}

impl ReplayOutcome {
    /// True when the history passed the oracle.
    pub fn is_serializable(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replay `history` serially in commit order against the programs in `set`
/// and compare with the concurrent observations and `final_db`.
pub fn replay_serial(
    set: &TransactionSet,
    history: &History,
    final_db: &Database,
) -> ReplayOutcome {
    replay_in_order(
        set,
        &history.committed_index(),
        history.commit_order(),
        final_db,
    )
}

/// Replay the committed instances serially in `order` (a commit order, a
/// topological order of `SG(H)`, snapshot readers at their stamps …)
/// against the programs in `set`, and compare every read with the final
/// attempt's reads in `index` and the end state with `final_db`.
pub fn replay_in_order(
    set: &TransactionSet,
    index: &CommittedIndex,
    order: &[InstanceId],
    final_db: &Database,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    // The serial store, dense by item: every item the programs touch.
    let items = set
        .templates()
        .iter()
        .flat_map(|t| &t.steps)
        .filter_map(|step| step.op.item())
        .map(|x| x.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut db = vec![VersionedValue::INITIAL; items];
    // One workspace, re-homed to each instance in turn.
    let mut ws = Workspace::new(InstanceId::first(TxnId(0)));

    for &who in order {
        let template = set.template(who.txn);
        let observed = index.reads(who);
        let expected = template
            .steps
            .iter()
            .filter(|step| matches!(step.op, Operation::Read(_)))
            .count();
        if observed.len() != expected {
            out.violations.push(ReplayViolation::ReadCountMismatch {
                instance: who,
                observed: observed.len(),
                expected,
            });
        }
        ws.reset(who);
        let mut read_index = 0;
        for (step_index, step) in template.steps.iter().enumerate() {
            match step.op {
                Operation::Read(item) => {
                    let serial = ws.read_over(item, &db[item.0 as usize]).value;
                    if let Some(o) = observed.get(read_index) {
                        debug_assert_eq!(item, o.item, "programs are deterministic");
                        if serial != o.value {
                            out.violations.push(ReplayViolation::ReadMismatch {
                                instance: who,
                                read_index,
                                item,
                                observed: o.value,
                                serial,
                            });
                        }
                    }
                    read_index += 1;
                }
                Operation::Write(item) => {
                    ws.write(step_index, item);
                }
                Operation::Compute => {}
            }
        }
        // Install this instance's writes before the next one replays.
        for &(item, value) in ws.staged_writes() {
            let at = &mut db[item.0 as usize];
            *at = VersionedValue {
                value,
                version: at.version + 1,
                writer: Some(who),
                installed_at: Tick::ZERO,
            };
        }
    }
    final_state(&db, final_db, &mut out.violations);
    out
}

/// Append a [`ReplayViolation::FinalStateMismatch`] for every item on
/// which the serial and the observed end states differ, ascending.
fn final_state(serial: &[VersionedValue], observed: &Database, out: &mut Vec<ReplayViolation>) {
    let mut s = serial
        .iter()
        .enumerate()
        .filter(|(_, v)| v.writer.is_some())
        .map(|(x, v)| (ItemId(x as u32), v.value))
        .peekable();
    let mut o = observed.snapshot().into_iter().peekable();
    loop {
        // Merge the two ascending snapshots; an item missing on one side
        // is `None` there.
        let item = match (s.peek(), o.peek()) {
            (None, None) => return,
            (Some(&(a, _)), None) => a,
            (None, Some(&(b, _))) => b,
            (Some(&(a, _)), Some(&(b, _))) => a.min(b),
        };
        let serial = s.next_if(|&(x, _)| x == item).map(|(_, v)| v);
        let observed = o.next_if(|&(x, _)| x == item).map(|(_, v)| v);
        if serial != observed {
            out.push(ReplayViolation::FinalStateMismatch {
                item,
                observed,
                serial,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::EventKind;
    use rtdb_types::{SetBuilder, Step, Tick, TransactionTemplate, TxnId};

    /// Two transactions: T1 reads x then writes y; T2 reads y then writes x.
    fn set() -> TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "T1",
                10,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "T2",
                10,
                vec![Step::read(ItemId(1), 1), Step::write(ItemId(0), 1)],
            ))
            .build()
            .unwrap()
    }

    /// Execute the set serially for real and log a faithful history; the
    /// oracle must accept it.
    #[test]
    fn faithful_serial_run_passes() {
        let set = set();
        let mut db = Database::new();
        let mut h = History::new();
        for id in [TxnId(0), TxnId(1)] {
            let who = InstanceId::first(id);
            h.push(Tick(0), who, EventKind::Begin);
            let mut ws = Workspace::new(who);
            for (i, step) in set.template(id).steps.iter().enumerate() {
                match step.op {
                    Operation::Read(item) => {
                        let rec = ws.read(&db, item);
                        h.push(
                            Tick(1),
                            who,
                            EventKind::Read {
                                item,
                                value: rec.value,
                                version: rec.version,
                                own: rec.own,
                            },
                        );
                    }
                    Operation::Write(item) => {
                        let v = ws.write(i, item);
                        h.push(Tick(1), who, EventKind::StageWrite { item, value: v });
                    }
                    Operation::Compute => {}
                }
            }
            h.push(Tick(2), who, EventKind::Commit);
            for (item, value, version) in ws.commit_into(&mut db, Tick(2)) {
                h.push(
                    Tick(2),
                    who,
                    EventKind::Install {
                        item,
                        value,
                        version,
                    },
                );
            }
        }
        let outcome = replay_serial(&set, &h, &db);
        assert!(outcome.is_serializable(), "{:?}", outcome.violations);
    }

    /// Forge a non-serializable interleaving (both read the initial values,
    /// then both commit) and check that the oracle rejects it.
    #[test]
    fn forged_nonserializable_run_fails() {
        let set = set();
        let mut db = Database::new();
        let mut h = History::new();
        let t1 = InstanceId::first(TxnId(0));
        let t2 = InstanceId::first(TxnId(1));

        let mut ws1 = Workspace::new(t1);
        let mut ws2 = Workspace::new(t2);
        h.push(Tick(0), t1, EventKind::Begin);
        h.push(Tick(0), t2, EventKind::Begin);

        // Both read the initial versions concurrently.
        for (who, ws, item) in [(t1, &mut ws1, ItemId(0)), (t2, &mut ws2, ItemId(1))] {
            let rec = ws.read(&db, item);
            h.push(
                Tick(1),
                who,
                EventKind::Read {
                    item,
                    value: rec.value,
                    version: rec.version,
                    own: rec.own,
                },
            );
        }
        ws1.write(1, ItemId(1));
        ws2.write(1, ItemId(0));

        for (who, ws) in [(t1, ws1), (t2, ws2)] {
            h.push(Tick(2), who, EventKind::Commit);
            for (item, value, version) in ws.commit_into(&mut db, Tick(2)) {
                h.push(
                    Tick(2),
                    who,
                    EventKind::Install {
                        item,
                        value,
                        version,
                    },
                );
            }
        }

        let outcome = replay_serial(&set, &h, &db);
        assert!(!outcome.is_serializable());
        // T2 read y's initial value concurrently, but serial replay in
        // commit order (T1 first) would give it T1's write.
        assert!(outcome.violations.iter().any(
            |v| matches!(v, ReplayViolation::ReadMismatch { instance, .. } if *instance == t2)
        ));
    }

    #[test]
    fn read_count_mismatch_is_flagged() {
        let set = set();
        let db = Database::new();
        let mut h = History::new();
        let t1 = InstanceId::first(TxnId(0));
        h.push(Tick(0), t1, EventKind::Begin);
        // No reads logged at all, then a commit: template expects one read.
        h.push(Tick(1), t1, EventKind::Commit);
        let outcome = replay_serial(&set, &h, &db);
        assert!(outcome
            .violations
            .iter()
            .any(|v| matches!(v, ReplayViolation::ReadCountMismatch { .. })));
    }
}
