//! A packaged verification battery for simulation runs.
//!
//! Downstream users (and this repository's own tests) can verify any
//! [`RunResult`] against the guarantees its protocol is supposed to
//! provide — Theorems 1–3 of the paper plus the engine's bookkeeping
//! invariants — with one call:
//!
//! ```
//! use rtdb_sim::{checks, Engine, SimConfig};
//! use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate};
//!
//! let set = SetBuilder::new()
//!     .with(TransactionTemplate::new("a", 10, vec![Step::read(ItemId(0), 1)]))
//!     .with(TransactionTemplate::new("b", 20, vec![Step::write(ItemId(0), 2)]))
//!     .build().unwrap();
//! let run = Engine::new(&set, SimConfig::with_horizon(100))
//!     .run(&mut rtdb_protocols::PcpDa::new()).unwrap();
//!
//! let violations = checks::verify_run(&set, &run, checks::Expectations::pcp_da());
//! assert!(violations.is_empty(), "{violations:?}");
//! ```

use crate::engine::{RunOutcome, RunResult};
use rtdb_storage::{replay_in_order, CommittedIndex, Database, History, SerializationGraph};
use rtdb_types::{InstanceId, ItemId, TransactionSet};
use std::collections::BTreeMap;

/// What a protocol promises; [`verify_run`] checks a run against it.
#[derive(Clone, Copy, Debug)]
pub struct Expectations {
    /// The run must complete (no unresolved deadlock).
    pub deadlock_free: bool,
    /// No transaction may ever be aborted/restarted.
    pub no_restarts: bool,
    /// Every instance is blocked by at most one distinct lower-priority
    /// transaction (Theorem 1).
    pub single_blocking: bool,
    /// Serial replay **in commit order** must reproduce every read and
    /// the final state (Theorem 3's serialization order). Protocols whose
    /// serialization order may deviate from commit order (CCP) use the
    /// topological check instead.
    pub commit_order_serialization: bool,
}

impl Expectations {
    /// PCP-DA (and RW-PCP / original PCP): every guarantee of the paper.
    pub fn pcp_da() -> Self {
        Expectations {
            deadlock_free: true,
            no_restarts: true,
            single_blocking: true,
            commit_order_serialization: true,
        }
    }

    /// CCP: deadlock-free, restart-free, single blocking, serializable —
    /// but the serialization order is decoupled from commit order.
    pub fn ccp() -> Self {
        Expectations {
            commit_order_serialization: false,
            ..Self::pcp_da()
        }
    }

    /// Abort-based protocols (2PL-HP, OCC-BC) and 2PL-PI with deadlock
    /// resolution: serializability only.
    pub fn abort_based() -> Self {
        Expectations {
            deadlock_free: true,
            no_restarts: false,
            single_blocking: false,
            commit_order_serialization: true,
        }
    }
}

/// One failed guarantee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The run ended in a deadlock.
    Deadlock(Vec<rtdb_types::InstanceId>),
    /// Restarts happened although the protocol promises none.
    UnexpectedRestarts(u32),
    /// Some instance was blocked by more than one distinct
    /// lower-priority transaction.
    MultipleLowerBlockers {
        /// The offending instance.
        instance: rtdb_types::InstanceId,
        /// Its distinct lower-priority blockers.
        blockers: Vec<rtdb_types::TxnId>,
    },
    /// The serialization graph has a cycle.
    ConflictCycle(Vec<rtdb_types::InstanceId>),
    /// Serial replay diverged (value-level anomaly); carries the number
    /// of divergences.
    ReplayDivergence(usize),
    /// A snapshot reader observed a version that is not the latest one
    /// installed by the first `stamp` lock-path commits — its reads do
    /// not form a consistent committed prefix.
    SnapshotInconsistency {
        /// The offending snapshot reader.
        reader: InstanceId,
        /// Item whose read was wrong.
        item: ItemId,
        /// Version the reader observed.
        version: u64,
        /// Version visible at the reader's pinned stamp.
        expected: u64,
        /// The reader's pinned commit stamp.
        stamp: u64,
    },
}

/// Verify `run` against `expect`; returns every violation found (empty =
/// all guarantees held).
pub fn verify_run(set: &TransactionSet, run: &RunResult, expect: Expectations) -> Vec<Violation> {
    let mut out = Vec::new();

    if expect.deadlock_free {
        if let RunOutcome::Deadlock(cycle) = &run.outcome {
            out.push(Violation::Deadlock(cycle.clone()));
        }
    }

    if expect.no_restarts && run.history.aborts() > 0 {
        out.push(Violation::UnexpectedRestarts(run.history.aborts() as u32));
    }

    if expect.single_blocking {
        for m in run.metrics.instances() {
            if m.distinct_lower_blockers.len() > 1 {
                out.push(Violation::MultipleLowerBlockers {
                    instance: m.id,
                    blockers: m.distinct_lower_blockers.clone(),
                });
            }
        }
    }

    // Serializability — always checked: conflict graph first, then the
    // value-level replay in the appropriate order.
    out.extend(serializability_violations(
        set,
        &run.history,
        &run.db,
        expect.commit_order_serialization,
    ));

    out
}

/// The serializability core of [`verify_run`], usable on any history —
/// including those produced by the threaded runtime (`rtdb-rt`), which has
/// no [`RunResult`]: conflict-graph acyclicity first, then the value-level
/// serial replay, in commit order when `commit_order_serialization` is
/// set and otherwise in a topological order of the conflict graph (the
/// view check valid for CCP, whose serialization order may deviate from
/// commit order).
pub fn serializability_violations(
    set: &TransactionSet,
    history: &History,
    db: &Database,
    commit_order_serialization: bool,
) -> Vec<Violation> {
    let index = history.committed_index();
    indexed_violations(set, history, &index, db, commit_order_serialization)
}

/// [`serializability_violations`] over a history already indexed.
fn indexed_violations(
    set: &TransactionSet,
    history: &History,
    index: &CommittedIndex,
    db: &Database,
    commit_order_serialization: bool,
) -> Vec<Violation> {
    let graph = SerializationGraph::from_index(index);
    if let Some(cycle) = graph.find_cycle() {
        return vec![Violation::ConflictCycle(cycle)];
    }
    if commit_order_serialization {
        return replay_violations(set, index, history.commit_order(), db);
    }
    let topo = graph
        .topological_order()
        .expect("acyclic graph has a topological order");
    replay_violations(set, index, &topo, db)
}

/// The serial replay in `order`, as at most one violation.
fn replay_violations(
    set: &TransactionSet,
    index: &CommittedIndex,
    order: &[InstanceId],
    db: &Database,
) -> Vec<Violation> {
    let replay = replay_in_order(set, index, order, db);
    if replay.is_serializable() {
        Vec::new()
    } else {
        vec![Violation::ReplayDivergence(replay.violations.len())]
    }
}

/// [`serializability_violations`] extended for histories with lock-exempt
/// snapshot readers. `snapshots` lists each reader with its pinned commit
/// stamp (as the runtime's `RtResult::snapshot_stamps` reports them); with
/// an empty list this is exactly the plain oracle.
///
/// Three layers:
/// 1. conflict-graph acyclicity on the raw history (edges derive from the
///    version numbers each read observed, so snapshot readers' wr/rw
///    edges are already placed correctly);
/// 2. an explicit **consistent-prefix check**: every read of a snapshot
///    reader pinned at stamp `S` must observe exactly the latest version
///    installed by the first `S` lock-path commits — wr edges may only
///    point to installed-before-snapshot versions, and skipping an
///    overwritten-before-snapshot version is equally a violation;
/// 3. the value-level serial replay in an order that inserts each reader
///    directly after its stamp-th lock-path commit — the serial position
///    the snapshot semantics claim.
pub fn snapshot_serializability_violations(
    set: &TransactionSet,
    history: &History,
    db: &Database,
    commit_order_serialization: bool,
    snapshots: &[(InstanceId, u64)],
) -> Vec<Violation> {
    // Only committed readers participate; an unfinished one has no Commit
    // event to place.
    let index = history.committed_index();
    let readers: BTreeMap<InstanceId, u64> = snapshots
        .iter()
        .copied()
        .filter(|(r, _)| index.committed().binary_search(r).is_ok())
        .collect();
    if readers.is_empty() {
        return indexed_violations(set, history, &index, db, commit_order_serialization);
    }

    if let Some(cycle) = SerializationGraph::from_index(&index).find_cycle() {
        return vec![Violation::ConflictCycle(cycle)];
    }

    // 1-based commit positions of the lock-path (non-reader) commits —
    // the engine seals one stamp per such commit, in this exact order.
    let mut pos: BTreeMap<InstanceId, u64> = BTreeMap::new();
    for &who in history.commit_order() {
        if !readers.contains_key(&who) {
            pos.insert(who, pos.len() as u64 + 1);
        }
    }

    // Consistent-prefix check.
    let mut out = Vec::new();
    for (&reader, &stamp) in &readers {
        for read in index.reads(reader) {
            debug_assert!(!read.own, "snapshot readers stage nothing");
            let expected = index
                .installs(read.item)
                .iter()
                .filter(|&&(_, writer)| pos.get(&writer).is_some_and(|&p| p <= stamp))
                .map(|&(v, _)| v)
                .max()
                .unwrap_or(0);
            if read.version != expected {
                out.push(Violation::SnapshotInconsistency {
                    reader,
                    item: read.item,
                    version: read.version,
                    expected,
                    stamp,
                });
            }
        }
    }
    if !out.is_empty() {
        return out;
    }

    // Value-level replay with each reader serialized at its stamp.
    let mut by_stamp: BTreeMap<u64, Vec<InstanceId>> = BTreeMap::new();
    for (&r, &s) in &readers {
        by_stamp.entry(s).or_default().push(r);
    }
    let mut serial: Vec<InstanceId> = Vec::with_capacity(history.commit_order().len());
    serial.extend(by_stamp.get(&0).into_iter().flatten());
    let mut k = 0u64;
    for &who in history.commit_order() {
        if readers.contains_key(&who) {
            continue;
        }
        k += 1;
        serial.push(who);
        serial.extend(by_stamp.get(&k).into_iter().flatten());
    }
    // A stamp beyond the last commit cannot be pinned; be defensive.
    for (_, rs) in by_stamp.range(k + 1..) {
        serial.extend(rs);
    }
    replay_violations(set, &index, &serial, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SimConfig};
    use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate};

    fn contended_set() -> TransactionSet {
        SetBuilder::new()
            .with(TransactionTemplate::new(
                "A",
                20,
                vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
            ))
            .with(TransactionTemplate::new(
                "B",
                40,
                vec![Step::write(ItemId(0), 2), Step::read(ItemId(1), 1)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn pcpda_run_passes_full_battery() {
        let set = contended_set();
        let run = Engine::new(&set, SimConfig::with_horizon(200))
            .run(&mut rtdb_protocols::PcpDa::new())
            .unwrap();
        assert_eq!(verify_run(&set, &run, Expectations::pcp_da()), vec![]);
    }

    #[test]
    fn ccp_run_passes_its_battery() {
        let set = contended_set();
        let run = Engine::new(&set, SimConfig::with_horizon(200))
            .run(&mut rtdb_protocols::Ccp::new())
            .unwrap();
        assert_eq!(verify_run(&set, &run, Expectations::ccp()), vec![]);
    }

    #[test]
    fn abort_based_run_tolerates_restarts() {
        let set = contended_set();
        let run = Engine::new(&set, SimConfig::with_horizon(400))
            .run(&mut rtdb_protocols::TwoPlHp::new())
            .unwrap();
        assert_eq!(verify_run(&set, &run, Expectations::abort_based()), vec![]);
        // But the strict battery flags the restarts (if any happened).
        if run.history.aborts() > 0 {
            let v = verify_run(&set, &run, Expectations::pcp_da());
            assert!(v
                .iter()
                .any(|x| matches!(x, Violation::UnexpectedRestarts(_))));
        }
    }

    #[test]
    fn deadlock_is_reported() {
        // Example 5 under Naive-DA.
        let set = SetBuilder::new()
            .with(
                TransactionTemplate::new(
                    "TH",
                    10,
                    vec![Step::read(ItemId(1), 1), Step::write(ItemId(0), 1)],
                )
                .with_offset(1)
                .with_instances(1),
            )
            .with(
                TransactionTemplate::new(
                    "TL",
                    10,
                    vec![Step::read(ItemId(0), 1), Step::write(ItemId(1), 1)],
                )
                .with_instances(1),
            )
            .build()
            .unwrap();
        let run = Engine::new(&set, SimConfig::default())
            .run(&mut rtdb_protocols::NaiveDa::new())
            .unwrap();
        let v = verify_run(&set, &run, Expectations::pcp_da());
        assert!(v.iter().any(|x| matches!(x, Violation::Deadlock(_))));
    }
}
