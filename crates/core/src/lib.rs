//! Protocol-agnostic concurrency-control kernel.
//!
//! This crate is the layer between the two execution engines (the
//! simulator, the threaded runtime) and the concurrency-control
//! protocols: it defines *what a protocol is* ([`ProtocolFor`]), *what a
//! protocol may observe* ([`EngineView`]), the shared lock/ceiling
//! substrate every priority-ceiling-style protocol needs, and the one
//! implementation of the state those are predicates over, so that each
//! protocol implementation (PCP-DA and its comparators, all in
//! `rtdb-protocols`) is only its *locking conditions* and each engine
//! only its way of executing:
//!
//! * [`StateKernel`] — per-instance protocol state (`DataRead`, staged
//!   writes, pending request, blockers, commit gate, restart hold) with
//!   the lock table, inheritance, retired chains, committed store and
//!   history around it, and the transitions that mutate them — begin,
//!   acquire, block, re-evaluate, deadlock search, step-done, commit
//!   gate, commit, abort, restart hold. Each returns its effects for the
//!   engine to deliver ([`kernel`]);
//! * [`ProtocolFor`] — the one trait a concurrency-control protocol
//!   implements, generic over the view type so the engines' steady-state
//!   loops monomorphize both sides (no vtable on either the protocol or
//!   the view); the kernel calls [`ProtocolFor::request`] and applies the
//!   returned [`Decision`]. There is no trait-object twin: a protocol
//!   chosen at run time is `rtdb_protocols::AnyProtocol`, an enum over
//!   the registered kinds;
//! * [`ProtocolKind`] — the registry: one enum naming every protocol the
//!   workspace implements, with parsing, display and static metadata
//!   (family, update model, abort/deadlock behaviour). Every protocol
//!   line-up in the workspace derives from [`ProtocolKind::ALL`] or
//!   [`ProtocolKind::STANDARD`];
//! * [`LockTable`] — who holds which item in which mode, plus the wait
//!   queues' raw material. PCP-DA permits several concurrent write locks
//!   on one item (blind writes are non-conflicting under deferred updates,
//!   paper §4.1 Case 3), so the table tracks reader *and* writer sets per
//!   item and supports upgrades;
//! * [`CeilingTable`] — the static ceilings `Wceil(x)`/`HPW(x)` and
//!   `Aceil(x)` derived from a [`rtdb_types::TransactionSet`], and the
//!   dynamic `Sysceil` computations of PCP-DA (read locks only), RW-PCP
//!   (`RWceil`) and the original PCP (`Aceil` for any lock);
//! * `inherit` — transitive priority inheritance over the wait edges
//!   kept in each live instance's [`Record`], which are also the
//!   wait-for graph [`StateKernel::resolve_cycles`] searches (with
//!   [`rtdb_storage::find_cycle`], the serialization graph's search);
//! * [`shard`] — the sharded-ceiling substrate: item→shard routing
//!   (DPCP-p style) behind the runtime's sharded manager;
//! * [`testkit`] — a minimal static [`EngineView`] for protocol unit
//!   tests outside the engine.

#![forbid(unsafe_code)]

pub mod ceiling_index;
pub mod ceilings;
pub mod deps;
mod inherit;
pub mod kernel;
pub mod locks;
pub mod protocol;
pub mod registry;
pub mod shard;
pub mod testkit;

pub use ceiling_index::{CeilingFlavor, CeilingIndex, LevelMask};
pub use ceilings::{CeilingTable, Holders, SysCeil};
pub use deps::{AbortBreakdown, AbortReason};
pub use kernel::{Effect, Effects, Record, Span, StateKernel};
pub use locks::{HeldLock, LockTable};
pub use protocol::{
    sorted_disjoint, Decision, EngineView, GrantRule, LockRequest, ProtocolFor, UpdateModel,
};
pub use registry::{ProtocolFamily, ProtocolKind, UnknownProtocol};
pub use shard::{ShardRouter, ShardSet, MAX_SHARDS};
