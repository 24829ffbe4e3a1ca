//! The concurrency-control protocols: PCP-DA, every comparator the paper
//! names, the early-release kinds, and the registry that builds one from
//! its [`rtdb_core::ProtocolKind`].
//!
//! Each protocol implements the same [`rtdb_core::ProtocolFor`] trait
//! over the state kernel's view, so the simulator, the runtime, the
//! oracles and the benchmarks treat them interchangeably:
//!
//! * [`PcpDa`] — the paper's protocol (Lam, Son, Hung; ICDE 1997): the
//!   locking conditions LC1–LC4 over the update-in-workspace model, with
//!   the repaired errata (module [`pcpda`]; Table 1 is [`compat`]).
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
//! * [`Bamboo`] and [`Brook2Pl`] — hotspot-tolerant early release of
//!   write locks into the kernel's retired chains, behind its commit
//!   gates (2PL-HP and wait-die conflict rules; the shared retire policy
//!   is [`retire`]).
//! * [`NaiveDa`] — the deliberately weakened variant the paper uses in
//!   Example 5 (condition "(2) `P_i ≥ HPW(x)`" without the `T*`
//!   safeguards); it deadlocks, demonstrating why LC3/LC4 carry their
//!   extra clauses.
//!
//! [`registry`] turns a kind into a runnable protocol ([`instantiate`] →
//! [`AnyProtocol`]), below both engines.

#![forbid(unsafe_code)]

pub mod bamboo;
pub mod brook;
pub mod ccp;
pub mod compat;
pub mod naive_da;
pub mod occ;
pub mod pcp;
pub mod pcpda;
pub mod registry;
pub mod retire;
pub mod rwpcp;
pub mod twopl;

pub use bamboo::Bamboo;
pub use brook::Brook2Pl;
pub use ccp::Ccp;
pub use compat::{compatible, CompatInput};
pub use naive_da::NaiveDa;
pub use occ::OccBc;
pub use pcp::Pcp;
pub use pcpda::PcpDa;
pub use registry::{instantiate, AnyProtocol};
pub use rwpcp::RwPcp;
pub use twopl::{TwoPlHp, TwoPlPi};
