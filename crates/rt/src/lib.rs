//! Multi-threaded real-time transaction runtime.
//!
//! Where `rtdb-sim` *simulates* the paper's single-processor system —
//! deterministic discrete time, a modelled scheduler — this crate
//! *executes* the same transaction workloads on real OS threads, driving
//! the identical protocol decision logic from `rtdb-core` through a
//! parking lock manager:
//!
//! * `manager` (internal) — the protocol state core of one shard (lock
//!   table, ceilings, priority inheritance, history, database) and the
//!   delivery of its transitions to per-waiter condvars;
//! * `sharded` (internal) — the lock manager: `N ≥ 1` such cores, each
//!   behind its mutex, over items a static router spreads across them;
//!   the one place a state lock is taken and the one place a thread
//!   parks; cross-shard transactions acquire shards in canonical order
//!   under a no-wait rule and wait out their restart hold when denied
//!   (DESIGN.md §6f, per-shard telemetry in [`ShardStats`]);
//! * [`runtime`] — the worker pool and the closed-loop executor: worker
//!   threads drain a job list, each job running one transaction instance
//!   to commit (with abort/restart for the wound/validate protocols);
//! * `uni` (internal) — the one-worker, one-shard pool, the paper's
//!   uniprocessor: it runs the simulator's dispatch over the shard's
//!   kernel, preempting at tick boundaries;
//! * [`front`] — the asynchronous admission front-end: submitters
//!   enqueue [`JobRequest`]s (release time, deadline) on a bounded
//!   admission queue, the same worker pool pops it directly, completions
//!   return over per-submitter channels — open-loop arrivals with
//!   runtime deadline tracking;
//! * [`admission`] — the bounded admission queue and its two overload
//!   policies (reject, least-slack; neither parks a submitter), with
//!   per-tenant shed and reject counts;
//! * [`clock`] — the runtime's one clock ([`testkit`] has the tests' one);
//! * [`jobs`] — deterministic seeded job queues;
//! * [`histogram`] — a dependency-free log-bucketed latency histogram for
//!   the `rtload` load generator.
//!
//! The runtime intentionally shares every correctness-relevant component
//! with the simulator — [`rtdb_core::ProtocolFor`] decisions,
//! [`rtdb_storage::Workspace`] deferred updates, [`rtdb_storage::History`]
//! logging — so its executions can be validated by the same oracles:
//! conflict-serializability of the history and serial-replay equivalence.
//! Scheduling, by contrast, is real: with several workers the OS decides
//! who runs, so a run's interleaving (and therefore its history) is *not*
//! deterministic; only the safety properties are. One worker runs the
//! simulator's dispatch, so on a logical clock it reproduces the
//! simulator's schedule.
//!
//! The runtime runs the standard line-up
//! ([`rtdb_core::ProtocolKind::STANDARD`]). It refuses the two demo kinds
//! (`PCP-DA-literal`, `Naive-DA`): their negative results are single-CPU
//! schedules, which the simulator and `figures` reproduce.

#![forbid(unsafe_code)]

pub mod admission;
pub mod clock;
pub mod front;
pub mod histogram;
pub mod jobs;
mod manager;
pub mod runtime;
mod sharded;
mod snapshot;
pub mod testkit;
mod uni;

pub use admission::{shed_victim, AdmissionPolicy};
pub use front::{
    run_front, Completion, FrontConfig, FrontHandle, JobRequest, SubmitOutcome, Submitter,
    MAX_TENANT,
};
pub use histogram::LatencyHistogram;
pub use jobs::job_list;
pub use runtime::{
    run, run_jobs, run_on, JobReport, PriorityMisses, RtConfig, RtResult, TenantStats,
};
pub use sharded::ShardStats;
