//! The wait-to-commit rule on real threads (DESIGN.md §6c).
//!
//! PCP-DA lets a higher-priority reader read the pre-image of an item a
//! lower-priority writer holds write-locked, which serializes
//! the reader first. On one CPU the writer cannot commit before the
//! reader has finished; on two workers it could, and the reader's next
//! read of what the writer installed closed a cycle in a few percent of
//! the jobs. The kernel now puts such a reader on the writer's commit
//! gate. This is the benchmark's `closed-pcpda` shape — six templates
//! over sixteen items, three of them hot, seed 7; 2 workers with 2 µs of
//! busy-work per tick; 6000 jobs — which reproduced the cycle in every
//! run before the rule.

use rtdb_core::ProtocolKind;
use rtdb_rt::{job_list, run, RtConfig};
use rtdb_sim::{serializability_violations, WorkloadParams};

#[test]
fn readers_let_past_a_writer_keep_two_workers_serializable() {
    let set = WorkloadParams {
        templates: 6,
        items: 16,
        target_utilization: 0.6,
        hotspot_items: 3,
        hotspot_prob: 0.5,
        write_fraction: 0.4,
        seed: 7,
        ..WorkloadParams::default()
    }
    .generate()
    .expect("workload generation")
    .set;
    let jobs = job_list(&set, 6000, 7);
    let config = RtConfig::new(ProtocolKind::PcpDa)
        .with_threads(2)
        .with_tick_ns(2000);
    let rt = run(&set, &jobs, config);
    assert_eq!(rt.committed, jobs.len() as u64, "dropped jobs");
    let violations = serializability_violations(&set, &rt.history, &rt.db, true);
    assert!(violations.is_empty(), "{violations:?}");
}
