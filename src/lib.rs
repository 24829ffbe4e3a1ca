//! # rtdb — a hard real-time database kit around PCP-DA
//!
//! This crate is the façade of the workspace reproducing
//! *"A Priority Ceiling Protocol with Dynamic Adjustment of Serialization
//! Order"* (Lam, Son, Hung; ICDE 1997). It re-exports:
//!
//! * [`pcpda`] — the paper's protocol (locking conditions LC1–LC4,
//!   crate `rtdb-cc`);
//! * [`baselines`] — RW-PCP, original PCP, CCP, 2PL-PI, 2PL-HP and the
//!   deliberately deadlock-prone Naive-DA of Example 5;
//! * [`sim`] — the deterministic discrete-event simulator (single CPU,
//!   priority inheritance, periodic transactions) that reproduces the
//!   paper's Figures 1–5 tick-for-tick;
//! * [`rt`] — the multi-threaded runtime (crate `rtdb-rt`): the same
//!   protocols executed on real OS threads through a parking lock
//!   manager, with closed-loop job execution, an asynchronous admission
//!   front-end for open-loop arrivals with runtime deadline tracking
//!   (slack-aware admission, per-tenant fairness budgets), and latency
//!   histograms;
//! * [`net`] — the TCP service edge (crate `rtdb-net`): blocking
//!   per-connection reader and writer threads speaking a length-prefixed
//!   binary wire protocol, bridging socket clients onto the admission
//!   front-end;
//! * [`analysis`] — the §9 worst-case schedulability analysis (`BTS_i`,
//!   `B_i`, Liu–Layland with blocking, response-time analysis, breakdown
//!   utilization);
//! * [`storage`] — the memory-resident store with private workspaces,
//!   plus the serializability oracles (serialization graph + serial
//!   replay);
//! * [`cc`] — the protocol-agnostic kernel (crate `rtdb-core`): the
//!   [`cc::ProtocolFor`] trait (the only protocol trait; a protocol
//!   chosen at run time is a [`sim::AnyProtocol`] built by
//!   [`sim::instantiate`] from the [`cc::ProtocolKind`] registry), the
//!   state kernel, lock table, ceilings, priority inheritance, wait-for
//!   graph;
//! * [`types`] — ids, discrete time, priorities, transaction templates.
//!
//! ## Quick start
//!
//! ```
//! use rtdb::prelude::*;
//!
//! // Two periodic transactions: a fast reader and a slow writer
//! // (the paper's Example 3).
//! let set = SetBuilder::new()
//!     .with(TransactionTemplate::new("reader", 5, vec![
//!         Step::read(ItemId(0), 1), Step::read(ItemId(1), 1),
//!     ]).with_offset(1).with_instances(2))
//!     .with(TransactionTemplate::new("writer", 10, vec![
//!         Step::write(ItemId(0), 1), Step::compute(2),
//!         Step::write(ItemId(1), 1), Step::compute(1),
//!     ]).with_instances(1))
//!     .build().unwrap();
//!
//! // Simulate under PCP-DA: the reader is never blocked.
//! let mut protocol = PcpDa::new();
//! let run = Engine::new(&set, SimConfig::default()).run(&mut protocol).unwrap();
//! assert_eq!(run.metrics.deadline_misses(), 0);
//! assert!(run.replay_check(&set).is_serializable());
//!
//! // And the analysis agrees before running anything:
//! let report = rtdb::analysis::schedulable(&set, AnalysisProtocol::PcpDa);
//! assert!(report.rta_schedulable());
//! ```

#![forbid(unsafe_code)]

pub mod paper;

pub use rtdb_analysis as analysis;
pub use rtdb_baselines as baselines;
pub use rtdb_cc as pcpda;
pub use rtdb_core as cc;
pub use rtdb_net as net;
pub use rtdb_rt as rt;
pub use rtdb_sim as sim;
pub use rtdb_storage as storage;
pub use rtdb_types as types;

/// The most commonly used items in one import.
pub mod prelude {
    pub use rtdb_analysis::{breakdown_utilization, schedulable, AnalysisProtocol};
    pub use rtdb_baselines::{Ccp, NaiveDa, OccBc, Pcp, RwPcp, TwoPlHp, TwoPlPi};
    pub use rtdb_cc::{GrantRule, PcpDa};
    pub use rtdb_core::{
        AbortBreakdown, AbortReason, Decision, EngineView, LockRequest, ProtocolFor, ProtocolKind,
        StateKernel,
    };
    pub use rtdb_net::{serve, NetClient, NetConfig};
    pub use rtdb_rt::{
        job_list, run_front, AdmissionPolicy, FairnessConfig, FrontConfig, JobRequest,
        LatencyHistogram, RtConfig, RtResult, TenantStats,
    };
    pub use rtdb_sim::{
        compare_protocols, Engine, MetricsReport, RunOutcome, RunResult, SimConfig, WorkloadParams,
    };
    pub use rtdb_storage::{replay_serial, Database, History, SerializationGraph};
    pub use rtdb_types::{
        Ceiling, Duration, InstanceId, ItemId, LockMode, Priority, SetBuilder, Step, Tick,
        TransactionSet, TransactionTemplate, TxnId,
    };
}
