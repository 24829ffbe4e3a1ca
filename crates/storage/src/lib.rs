//! Memory-resident storage substrate for the PCP-DA reproduction.
//!
//! The paper assumes "a single processor with a memory resident database"
//! and the **update-in-workspace** transaction model (§4): before a
//! transaction commits it reads and updates data items only in its private
//! workspace; data items are written into the database only upon successful
//! commit. This crate provides:
//!
//! * [`Database`] — the committed store with per-item version counters;
//! * [`Workspace`] — a transaction instance's private read/write workspace
//!   (deferred updates), tracking `DataRead(T_i)` exactly as the protocol
//!   needs it;
//! * [`History`] — a complete, versioned log of every read, staged write,
//!   commit and abort, the raw material for the correctness oracles, which
//!   read it through one flat [`CommittedIndex`];
//! * [`mvcc`] — bounded per-item version chains keyed by a global commit
//!   stamp, powering the runtime's lock-free snapshot read path for
//!   read-only transactions, with epoch-style reclamation;
//! * [`SerializationGraph`] — the conflict graph `SG(H)` of a history with
//!   cycle detection (Theorem 3 oracle), through [`find_cycle`], the cycle
//!   search the kernel's deadlock check (Theorem 2) runs too, on buffers
//!   it keeps ([`CycleScratch`]);
//! * [`replay`] — the serial-replay oracle: re-executes the committed
//!   transactions serially in commit order (or in any order given to
//!   [`replay_in_order`]) and verifies that every read of the concurrent
//!   history saw exactly the value it would have seen in that serial
//!   execution, and that the final database states coincide.
//!
//! Under strict locking (all locks held to commit) the update-in-workspace
//! model also faithfully emulates update-in-place for the 2PL baselines: an
//! exclusive lock held to commit makes deferred and immediate writes
//! indistinguishable to every other transaction.

#![forbid(unsafe_code)]

pub mod db;
pub mod graph;
pub mod history;
pub mod mvcc;
pub mod replay;
pub mod workspace;

pub use db::{Database, Version, VersionedValue};
pub use graph::{find_cycle, ConflictEdge, CycleScratch, EdgeKind, SerializationGraph};
pub use history::{CommittedIndex, Event, EventKind, History};
pub use mvcc::{SnapshotStore, Stamp, NO_SNAPSHOT};
pub use replay::{replay_in_order, replay_serial, ReplayOutcome, ReplayViolation};
pub use workspace::Workspace;
