//! Deterministic discrete-event simulator for hard real-time database
//! systems.
//!
//! The simulator realises the paper's execution model exactly: a single
//! processor, a memory-resident database, periodic transactions with
//! rate-monotonic (or explicit) priorities, priority-driven preemptive
//! scheduling with priority inheritance, and a pluggable concurrency
//! control protocol deciding every lock request. Time is integral, the
//! schedule is a deterministic function of the transaction set + protocol,
//! and the paper's worked examples (Figures 1–5) are reproduced
//! tick-for-tick.
//!
//! # Structure
//!
//! * [`engine`] — the core simulation loop: arrivals, scheduling,
//!   lock-request mediation, blocking/inheritance, commits, aborts,
//!   deadlock detection/resolution;
//! * [`metrics`] — per-instance and per-template statistics: response and
//!   blocking times, deadline misses, restarts, distinct lower-priority
//!   blockers (the single-blocking property), observed `Max_Sysceil`;
//! * [`trace`] + [`gantt`] — segments, ceiling samples and the run's
//!   [`rtdb_core::Effect`]s, each with its tick, and the ASCII timeline
//!   rendering used to regenerate the paper's figures;
//! * [`workload`] — seeded random workload generation for the extension
//!   experiments (E9–E11);
//! * [`sweep`] — run identical workloads across protocols and tabulate.
//!
//! # Quick start
//!
//! ```
//! use rtdb_types::{ItemId, SetBuilder, Step, TransactionTemplate};
//! use rtdb_sim::{Engine, SimConfig};
//! use rtdb_protocols::PcpDa;
//!
//! // Paper Example 3.
//! let set = SetBuilder::new()
//!     .with(TransactionTemplate::new("T1", 5, vec![
//!         Step::read(ItemId(0), 1), Step::read(ItemId(1), 1),
//!     ]).with_offset(1).with_instances(2))
//!     .with(TransactionTemplate::new("T2", 10, vec![
//!         Step::write(ItemId(0), 1), Step::compute(2),
//!         Step::write(ItemId(1), 1), Step::compute(1),
//!     ]).with_instances(1))
//!     .build().unwrap();
//!
//! let mut protocol = PcpDa::new();
//! let result = Engine::new(&set, SimConfig::default()).run(&mut protocol).unwrap();
//! assert_eq!(result.metrics.deadline_misses(), 0);   // Figure 2: no blocking
//! assert!(result.replay_check(&set).is_serializable());
//! ```

#![forbid(unsafe_code)]

pub mod checks;
pub mod engine;
pub mod gantt;
pub mod metrics;
pub mod sweep;
pub mod trace;
pub mod workload;

pub use checks::{
    serializability_violations, snapshot_serializability_violations, verify_run, Expectations,
    Violation,
};
pub use engine::{Engine, RunOutcome, RunResult, SimConfig};
pub use metrics::{InstanceMetrics, MetricsReport, TemplateMetrics};
pub use rtdb_protocols::{instantiate, AnyProtocol};
pub use sweep::{compare_protocols, ProtocolRow};
pub use trace::{SegKind, Trace};
pub use workload::{WorkloadParams, WorkloadSpec};
