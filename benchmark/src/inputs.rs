//! The generated inputs the workloads share.

use rtdb::sim::WorkloadParams;
use rtdb::types::TransactionSet;

/// The benchmark's transaction-set shape: six templates over sixteen
/// items, three of them hot, 60% utilization, 40% writes.
pub fn params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        templates: 6,
        items: 16,
        target_utilization: 0.6,
        hotspot_items: 3,
        hotspot_prob: 0.5,
        write_fraction: 0.4,
        seed,
        ..WorkloadParams::default()
    }
}

/// The one set every runtime workload runs (see [`crate::spec::SET_SEED`]).
pub fn standard_set() -> TransactionSet {
    params(crate::spec::SET_SEED)
        .generate()
        .expect("the standard parameters are valid")
        .set
}
