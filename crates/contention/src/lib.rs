//! Hotspot-tolerant early-release protocols.
//!
//! Both protocols in this crate sit on the dependency-tracking subsystem
//! of `rtdb-core` ([`rtdb_core::DepTracker`]): after a transaction's
//! *last* write access to an item it **retires** the write lock — the
//! lock is released into a per-item retired list instead of being held to
//! commit, and later transactions may acquire the item immediately,
//! reading the retiree's uncommitted value. The engine registers a commit
//! dependency on the latest retiree at grant time, gates every commit
//! until its dependencies drain, and cascades aborts along the dependency
//! graph. That machinery is protocol-agnostic; the two kinds here are
//! only the *conflict rules* layered on top:
//!
//! * [`Bamboo`] — 2PL-HP over the active locks (wound all
//!   strictly-lower-priority conflicting holders, else block); a
//!   *retired* chain is always acquirable — the requester takes a
//!   commit dependency on the latest retiree, whatever the priorities.
//!   The priority inversion at the gate is bounded (the retiree is past
//!   its writes), and granting preserves the retiree's completed work
//!   plus everything its dirty readers built on it. Gate waits can
//!   close cycles with lock waits, so `ProtocolKind::may_deadlock` is
//!   true and drivers run it with the engine's deadlock resolution. After
//!   "Releasing Locks As Early As You Can" (Guo et al.).
//! * [`Brook2Pl`] — deadlock-free early release via a static seniority
//!   order (wait-die): a requester facing a *senior* conflicting holder
//!   or retiree aborts itself and is restarted once a blocker leaves;
//!   facing only juniors it waits (or, over a retired chain, acquires
//!   and takes the dependency). Every lock-wait and gate-wait edge then
//!   points senior → junior, so the wait graph is acyclic. After
//!   "Brook-2PL" (Habibi et al.).
//!
//! Retire policy (shared): after completing step `s`, every held write
//! lock whose item is not accessed in steps `s+1..` is retired. Read
//! locks are never retired — they are held to commit, which (together
//! with the commit gate forcing commit order = retire order per item)
//! keeps commit-order replay a valid serializability oracle for both
//! kinds; see DESIGN.md §6h.

#![forbid(unsafe_code)]

mod bamboo;
mod brook;

pub use bamboo::Bamboo;
pub use brook::Brook2Pl;

use rtdb_core::EngineView;
use rtdb_types::{InstanceId, ItemId, LockMode};
use std::collections::BTreeSet;

/// Conflicting holders of `req` under classical r/w lock semantics.
/// (Retired writers are *not* holders — that is the whole point.)
pub(crate) fn conflict_holders<V: EngineView + ?Sized>(
    view: &V,
    req: rtdb_core::LockRequest,
) -> BTreeSet<InstanceId> {
    let locks = view.locks();
    let mut out: BTreeSet<InstanceId> = BTreeSet::new();
    match req.mode {
        LockMode::Read => {
            out.extend(locks.writers_other_than(req.item, req.who));
        }
        LockMode::Write => {
            out.extend(locks.writers_other_than(req.item, req.who));
            out.extend(locks.readers_other_than(req.item, req.who));
        }
    }
    out
}

/// Write locks of `who` whose last access lies at or before
/// `completed_step`: the retire set shared by both protocols. Unlike
/// CCP's convex release there is no lock-point requirement — releasing
/// before the growing phase ends is exactly what the dependency tracker
/// makes safe (successors take a commit dependency instead of a lock
/// wait). Returns an empty set when the engine exposes no [`DepTracker`]
/// (retiring without tracking would be unsound).
///
/// [`DepTracker`]: rtdb_core::DepTracker
pub(crate) fn retire_candidates<V: EngineView + ?Sized>(
    view: &V,
    who: InstanceId,
    completed_step: usize,
) -> Vec<ItemId> {
    if view.deps().is_none() {
        return Vec::new();
    }
    let template = view.set().template(who.txn);
    let remaining = &template.steps[completed_step + 1..];
    let still_needed = |item: ItemId| remaining.iter().any(|s| s.op.item() == Some(item));
    let mut out: Vec<ItemId> = view
        .locks()
        .held_by(who)
        .filter(|l| l.mode == LockMode::Write && !still_needed(l.item))
        .map(|l| l.item)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `a` precedes `b` in the static seniority order used by [`Brook2Pl`]:
/// earlier arrivals are senior; among simultaneous arrivals the
/// higher-priority template (lower `TxnId`) is senior. The order is a
/// pure function of the [`InstanceId`], so it is identical across
/// engines and survives restarts (a restarted instance keeps its id and
/// therefore its seniority — the wait-die no-starvation argument).
pub(crate) fn senior(a: InstanceId, b: InstanceId) -> bool {
    (a.seq, a.txn.0) < (b.seq, b.txn.0)
}
