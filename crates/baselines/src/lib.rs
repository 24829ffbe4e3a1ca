//! Baseline real-time concurrency-control protocols.
//!
//! Every comparator the paper names, implemented against the same
//! [`rtdb_core::ProtocolFor`] trait as PCP-DA so the simulator, the
//! oracles and the benchmarks treat them interchangeably:
//!
//! * [`RwPcp`] — the read/write priority ceiling protocol of Sha, Rajkumar
//!   and Lehoczky (the paper's main comparison target). Two static
//!   ceilings per item (`Wceil`, `Aceil`); the dynamic `RWceil` is
//!   `Aceil(x)` while `x` is write-locked and `Wceil(x)` while read-locked;
//!   a single rule `P_i > Sysceil_i` decides every request.
//! * [`Pcp`] — the original priority ceiling protocol with one absolute
//!   ceiling per item and exclusive access semantics.
//! * [`Ccp`] — the convex ceiling protocol of Nakazato and Lin: PCP's rule
//!   plus *early unlock* of an item once the transaction no longer needs
//!   it and will not lock any item with a higher ceiling.
//! * [`TwoPlPi`] — strict two-phase locking with priority inheritance.
//!   Can deadlock; the engine detects and (optionally) resolves by
//!   aborting the lowest-priority instance on the cycle.
//! * [`TwoPlHp`] — 2PL High Priority: conflicts are resolved in favour of
//!   the higher-priority transaction by aborting lower-priority holders.
//!   Deadlock-free but entails restarts.
//! * [`OccBc`] — optimistic concurrency control with broadcast commit:
//!   the abort-and-restart school the paper's §2 contrasts against; never
//!   blocks, restarts invalidated readers at commit.
//! * [`NaiveDa`] — the deliberately weakened variant the paper uses in
//!   Example 5 (condition "(2) `P_i ≥ HPW(x)`" without the `T*`
//!   safeguards); it deadlocks, demonstrating why LC3/LC4 carry their
//!   extra clauses.

#![forbid(unsafe_code)]

pub mod ccp;
pub mod naive_da;
pub mod occ;
pub mod pcp;
pub mod rwpcp;
pub mod twopl;

pub use ccp::Ccp;
pub use naive_da::NaiveDa;
pub use occ::OccBc;
pub use pcp::Pcp;
pub use rwpcp::RwPcp;
pub use twopl::{conflict_holders, TwoPlHp, TwoPlPi};
