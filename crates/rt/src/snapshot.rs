//! Runtime side-car for the multiversion snapshot read path.
//!
//! When [`crate::RtConfig::snapshot_reads`] is on and the protocol's
//! update model permits it (see `ProtocolKind::snapshot_exempt`), jobs
//! whose template is read-only bypass the lock manager entirely: they pin
//! a commit stamp on the shared [`SnapshotStore`], resolve every read
//! against the bounded version chains, and commit without a single
//! protocol decision, lock-table transition, block or abort. Writers are
//! untouched — their commits publish installed versions into the store
//! from inside the commit critical section they already hold.
//!
//! Reader events cannot go through the manager's history (that would
//! reintroduce the shared lock the path exists to avoid), so each reader
//! records its events locally and this side-car merges them into the
//! run's [`History`] after the workers join. The serializability oracle
//! places each reader at its commit stamp, not at its history position,
//! so the merge order is immaterial.

use rtdb_storage::{EventKind, History, SnapshotStore, Version};
use rtdb_types::{InstanceId, ItemId, TransactionSet, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One committed snapshot reader's local event log. The reader's stamp
/// travels through its `JobStats`/`JobReport` instead — the history only
/// needs the observed values and versions.
pub(crate) struct ReaderLog {
    pub(crate) id: InstanceId,
    /// `(item, value, version)` per data read, in step order.
    pub(crate) reads: Vec<(ItemId, Value, Version)>,
}

/// Shared state of the snapshot read path: the concurrent version store
/// plus the reader-side commit logs merged into the history at the end
/// of the run. One per run, created only when the path is enabled. Logs
/// are sharded per worker — each worker only ever touches its own slot,
/// so reader commits never contend on a shared collection (the mutexes
/// exist only to keep the type `Sync` for the end-of-run merge).
pub(crate) struct SnapshotSide {
    pub(crate) store: SnapshotStore,
    logs: Vec<Mutex<Vec<ReaderLog>>>,
    committed: AtomicU64,
}

impl SnapshotSide {
    pub(crate) fn new(n_items: usize, n_workers: usize) -> Self {
        SnapshotSide {
            store: SnapshotStore::new(n_items, n_workers),
            logs: (0..n_workers.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            committed: AtomicU64::new(0),
        }
    }

    /// Store sized for every item `set` can touch.
    pub(crate) fn for_set(set: &TransactionSet, n_workers: usize) -> Self {
        let n_items = set
            .items()
            .iter()
            .next_back()
            .map_or(0, |i| i.0 as usize + 1);
        SnapshotSide::new(n_items, n_workers)
    }

    /// Record one reader's commit from worker `worker`; returns its
    /// zero-based ordinal in the reader commit stream (the caller offsets
    /// it past the lock-path commits once their total is known).
    pub(crate) fn commit_reader(&self, worker: usize, log: ReaderLog) -> u64 {
        let ordinal = self.committed.fetch_add(1, Ordering::Relaxed);
        self.logs[worker]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(log);
        ordinal
    }

    /// Append every reader's Begin/Read/Commit events to `history`.
    /// Ticks continue past the manager's clock; they only order the log
    /// for human readers — the oracle positions snapshot readers by
    /// their commit stamp.
    pub(crate) fn merge_into(&self, history: &mut History) {
        let mut at = history.events().last().map_or(0, |e| e.at.0);
        for slot in &self.logs {
            let logs = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for log in logs.iter() {
                at += 1;
                history.push(rtdb_types::Tick(at), log.id, EventKind::Begin);
                for &(item, value, version) in &log.reads {
                    at += 1;
                    history.push(
                        rtdb_types::Tick(at),
                        log.id,
                        EventKind::Read {
                            item,
                            value,
                            version,
                            own: false,
                        },
                    );
                }
                at += 1;
                history.push(rtdb_types::Tick(at), log.id, EventKind::Commit);
            }
        }
    }
}
