//! Protocol-agnostic concurrency-control kernel.
//!
//! This crate is the layer between the two execution engines (the
//! simulator, the threaded runtime) and the concurrency-control
//! protocols: it defines *what a protocol is* ([`ProtocolFor`]), *what a
//! protocol may observe* ([`EngineView`]), the shared lock/ceiling
//! substrate every priority-ceiling-style protocol needs, and the one
//! implementation of the state those are predicates over, so that each
//! protocol implementation (PCP-DA in `rtdb-cc`, the baselines in
//! `rtdb-baselines`) is only its *locking conditions* and each engine
//! only its way of executing:
//!
//! * [`StateKernel`] — per-instance protocol state (`DataRead`, staged
//!   writes, pending request, blockers) with the lock table, inheritance,
//!   dependency tracker, committed store and history around it, and the
//!   transitions that mutate them — begin, acquire, block, re-evaluate,
//!   deadlock search, step-done, commit gate, commit, abort. Each
//!   returns its effects for the engine to deliver ([`kernel`]);
//! * [`ProtocolFor`] — the one trait a concurrency-control protocol
//!   implements, generic over the view type so the engines' steady-state
//!   loops monomorphize both sides (no vtable on either the protocol or
//!   the view); the kernel calls [`ProtocolFor::request`] and applies the
//!   returned [`Decision`]. There is no trait-object twin: a protocol
//!   chosen at run time is `rtdb_sim::AnyProtocol`, an enum over the
//!   registered kinds;
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
//! * [`PriorityManager`] — base priorities plus transitive priority
//!   inheritance over the current blocking edges;
//! * [`waitfor`] — the wait-for graph and deadlock detection;
//! * [`shard`] — the sharded-ceiling substrate: item→shard routing and
//!   the lock-free published-per-shard global ceiling (DPCP-p style)
//!   behind the runtime's sharded manager;
//! * [`testkit`] — a minimal static [`EngineView`] for protocol unit
//!   tests outside the engine.

#![forbid(unsafe_code)]

pub mod ceiling_index;
pub mod ceilings;
pub mod deps;
pub mod inherit;
pub mod kernel;
pub mod locks;
pub mod protocol;
pub mod registry;
pub mod shard;
pub mod testkit;
pub mod waitfor;

pub use ceiling_index::{CeilingFlavor, CeilingIndex};
pub use ceilings::{CeilingTable, Holders, SysCeil};
pub use deps::{AbortBreakdown, AbortReason, DepTracker, RetiredWrite};
pub use inherit::PriorityManager;
pub use kernel::{Aborted, Acquire, Record, StateKernel, StepDone};
pub use locks::{HeldLock, LockTable};
pub use protocol::{sorted_disjoint, Decision, EngineView, LockRequest, ProtocolFor, UpdateModel};
pub use registry::{ProtocolFamily, ProtocolKind, UnknownProtocol};
pub use shard::{
    deadlock_victim, find_deadlock_victim, GlobalCeiling, ShardRouter, ShardSet, MAX_SHARDS,
};
pub use waitfor::WaitForGraph;
