//! The retire helpers of the hotspot-tolerant early-release protocols,
//! [`Bamboo`](crate::Bamboo) and [`Brook2Pl`](crate::Brook2Pl).
//!
//! Both sit on two pieces of `rtdb-core`'s state kernel: after a
//! transaction's *last* write access to an item it **retires** the write
//! lock — the lock is released into the item's retired chain instead of
//! being held to commit, and later transactions may acquire the item
//! immediately, reading the retiree's uncommitted value. A grant over a
//! chain puts the latest retiree on the grantee's commit gate
//! ([`rtdb_core::Record::gate`]); the kernel holds every commit until its
//! gate is empty and cascades an abort to every instance whose gate names
//! the aborted one. That machinery is protocol-agnostic; the two kinds
//! are only the *conflict rules* layered on top.
//!
//! Retire policy (shared): after completing step `s`, every held write
//! lock whose item is not accessed in steps `s+1..` is retired. Read
//! locks are never retired — they are held to commit, which (together
//! with the commit gate forcing commit order = retire order per item)
//! keeps commit-order replay a valid serializability oracle for both
//! kinds; see DESIGN.md §6h.

use rtdb_core::EngineView;
use rtdb_types::{InstanceId, ItemId, LockMode};

/// Write locks of `who` whose last access lies at or before
/// `completed_step`: the retire set shared by both protocols. Unlike
/// CCP's convex release there is no lock-point requirement — releasing
/// before the growing phase ends is exactly what the commit gate makes
/// safe (successors wait at their commit instead of for the lock).
pub(crate) fn retire_candidates<V: EngineView + ?Sized>(
    view: &V,
    who: InstanceId,
    completed_step: usize,
) -> Vec<ItemId> {
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
