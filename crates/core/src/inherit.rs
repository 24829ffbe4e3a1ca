//! Priority inheritance.
//!
//! "If a transaction blocks a higher priority transaction, its running
//! priority will inherit that of the higher priority transaction" (paper
//! §5). Inheritance is transitive: if `T_3` blocks `T_2` which blocks
//! `T_1`, `T_3` runs at `P_1`. A transaction returns to its original
//! priority when the blocking edge disappears (here: when the engine clears
//! the edge after a release re-evaluation).
//!
//! The state is the kernel's: each live instance's [`Record`] carries its
//! wait edges ([`Record::waits_for`]) and its running priority
//! ([`Record::running`]), so reading a running priority is a field read.
//! [`inherit`] recomputes every running priority by fixpoint iteration
//! whenever an edge changes. The edge set is tiny (bounded by the number
//! of live instances), so the simple algorithm is both obviously correct
//! and fast enough; it walks the live list and the record slots in step,
//! and only an edge's target is looked up by id.

use crate::Record;
use rtdb_types::{InstanceId, TransactionSet};

/// Recompute `running` for every live record — `records[slot[i]]`
/// belongs to `active[i]`, ascending — as its base priority joined with
/// the running priority of every live instance waiting for it,
/// transitively. Edges to instances that are not live are ignored.
pub(crate) fn inherit(
    set: &TransactionSet,
    active: &[InstanceId],
    slot: &[u32],
    records: &mut [Record],
) {
    for (id, &s) in active.iter().zip(slot) {
        records[s as usize].running = set.priority_of(id.txn);
    }
    // Propagate to fixpoint: each pass pushes a waiting instance's running
    // priority into the instances it waits for. At most n passes are
    // needed (each pass extends the longest settled chain by one).
    for _ in 0..active.len() {
        let mut changed = false;
        for &s in slot {
            let rec = &records[s as usize];
            let p = rec.running;
            for k in 0..rec.waits_for.len() {
                let on = records[s as usize].waits_for[k];
                if let Ok(j) = active.binary_search(&on) {
                    let running = &mut records[slot[j] as usize].running;
                    if *running < p {
                        *running = p;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}
