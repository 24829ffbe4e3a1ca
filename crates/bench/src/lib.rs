//! Benchmark harness for the PCP-DA reproduction.
//!
//! * `src/bin/figures.rs` — regenerates **every table and figure** of the
//!   paper (experiments E1–E11 of DESIGN.md) as text, and emits
//!   machine-readable JSON records used by EXPERIMENTS.md;
//! * `src/bin/rtload.rs` — the runtime instrument: the seven rows of
//!   the [`scenarios`] table (closed-loop job queues, the [`loadgen`]
//!   open loop, [`netload`] through the TCP edge), one
//!   `BENCH_rt.<scenario>.jsonl` each.
//!
//! Isolated per-layer probes (lock-decision latency, lock-table cycle,
//! simulator ticks/s, analysis sets/s, oracle cost) live in the
//! repository's `benchmark/`, which runs them on every PR.
//!
//! Shared helpers live here. The protocol line-up everywhere in the
//! harness derives from the registry ([`ProtocolKind::STANDARD`]) —
//! there is no local list.

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod netload;
pub mod scenarios;

use rtdb::prelude::*;

/// A mid-sized standard workload used by several benches: 6 templates,
/// 60% utilization, moderate contention.
pub fn standard_workload(seed: u64) -> TransactionSet {
    WorkloadParams {
        templates: 6,
        items: 16,
        target_utilization: 0.6,
        hotspot_items: 3,
        hotspot_prob: 0.5,
        write_fraction: 0.4,
        seed,
        ..Default::default()
    }
    .generate()
    .expect("standard workload is valid")
    .set
}

/// The read-heavy workload family for the snapshot-read experiments:
/// `read_fraction` of the templates are pure readers (the rest write),
/// and item popularity follows a Zipfian of exponent `theta` over a
/// 32-item pool (`theta = 0.0` is uniform). 95/5 at θ ∈ {0, 0.6, 0.9}
/// is what `rtload snapshot` runs snapshot-off vs snapshot-on.
pub fn read_heavy_workload(seed: u64, read_fraction: f64, theta: f64) -> TransactionSet {
    assert!(
        (0.0..=1.0).contains(&read_fraction),
        "read fraction must be in [0, 1]"
    );
    let templates = 20;
    let read_only = (read_fraction * templates as f64).round() as usize;
    WorkloadParams {
        templates,
        items: 32,
        target_utilization: 0.6,
        hotspot_items: 0,
        hotspot_prob: 0.0,
        zipf_theta: Some(theta),
        read_only_templates: read_only.min(templates),
        write_fraction: 0.6,
        seed,
        ..Default::default()
    }
    .generate()
    .expect("read-heavy workload is valid")
    .set
}

/// The write-heavy Zipfian-hotspot workload family for the early-release
/// experiments: item popularity follows Zipf(θ) over a small 16-item
/// pool, 90% of data steps write (read locks never retire, so a
/// read-mixed hotspot would re-serialize on body-length read holds),
/// transactions are long (3–6 data steps), and each template accesses
/// its hottest item *first* (`hot_first`) — so a blocking protocol pins
/// the hot write lock across the whole remaining body, which is exactly
/// the window early lock release (Bamboo / Brook-2PL) exists to shrink.
/// θ = 0 falls back to the legacy two-tier hotspot item picker for the
/// sweep's baseline point. `rtload hotspot` runs θ ∈ {0, 0.6, 0.9, 1.2}
/// over the early-release kinds and the blocking baselines.
pub fn hotspot_workload(seed: u64, theta: f64) -> TransactionSet {
    WorkloadParams {
        templates: 8,
        items: 16,
        target_utilization: 0.6,
        min_data_steps: 3,
        max_data_steps: 6,
        hotspot_items: 3,
        hotspot_prob: 0.5,
        zipf_theta: Some(theta),
        write_fraction: 0.9,
        hot_first: true,
        seed,
        ..Default::default()
    }
    .generate()
    .expect("hotspot workload is valid")
    .set
}

/// The partitioned-Zipfian workload family for the sharded-manager
/// sweeps: a 32-item pool split across `partitions` partitions under the
/// shared router rule (`item mod partitions`), Zipf(0.7) skew *within*
/// each partition, and `cross_fraction` of the data steps sent to a
/// foreign partition — the cross-shard traffic axis of `rtload sharded`.
/// With `cross_fraction = 0` every template is single-shard by
/// construction.
pub fn partitioned_workload(seed: u64, partitions: usize, cross_fraction: f64) -> TransactionSet {
    WorkloadParams {
        templates: 8,
        items: 32,
        target_utilization: 0.6,
        hotspot_items: 0,
        hotspot_prob: 0.0,
        zipf_theta: Some(0.7),
        partitions,
        cross_partition_prob: cross_fraction,
        write_fraction: 0.4,
        seed,
        ..Default::default()
    }
    .generate()
    .expect("partitioned workload is valid")
    .set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_valid_workloads() {
        let w = standard_workload(1);
        assert!(w.total_utilization() > 0.3);
    }

    #[test]
    fn partitioned_workload_confines_templates_without_crossings() {
        let w = partitioned_workload(1, 4, 0.0);
        let router = rtdb_core::ShardRouter::new(4);
        for t in w.templates() {
            let shards: std::collections::BTreeSet<usize> =
                t.access_set().iter().map(|&i| router.shard_of(i)).collect();
            assert!(shards.len() <= 1, "template spans shards at cross 0");
        }
        // A positive cross fraction produces at least one spanning
        // template on this seed.
        let w = partitioned_workload(1, 4, 0.5);
        let spanning = w.templates().iter().any(|t| {
            t.access_set()
                .iter()
                .map(|&i| router.shard_of(i))
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1
        });
        assert!(
            spanning,
            "cross fraction 0.5 produced no cross-shard template"
        );
    }

    #[test]
    fn read_heavy_workload_respects_read_fraction() {
        let w = read_heavy_workload(1, 0.95, 0.9);
        let readers = w.templates().iter().filter(|t| t.is_read_only()).count();
        assert_eq!(readers, 19, "95% of 20 templates must be pure readers");
        assert!(w.templates().iter().any(|t| !t.is_read_only()));
    }
}
