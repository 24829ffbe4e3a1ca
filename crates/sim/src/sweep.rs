//! Run identical workloads across protocols and tabulate the comparison
//! (experiments E9/E10).

use crate::engine::{Engine, RunOutcome, SimConfig};
use crate::metrics::MetricsReport;
use rtdb_core::ProtocolKind;
use rtdb_types::{Ceiling, Result, TransactionSet};

/// One protocol's aggregate results on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtocolRow {
    /// Protocol name.
    pub name: &'static str,
    /// Released instances.
    pub released: usize,
    /// Deadline miss ratio.
    pub miss_ratio: f64,
    /// Total blocking time (ticks) across all instances.
    pub total_blocking: u64,
    /// Worst single-instance blocking time.
    pub max_blocking: u64,
    /// Total restarts (aborts).
    pub restarts: u32,
    /// Highest observed global system ceiling (`Max_Sysceil`).
    pub max_sysceil: Ceiling,
    /// Worst count of distinct lower-priority blockers for one instance
    /// (Theorem 1: ≤ 1 for PCP-DA / RW-PCP).
    pub max_distinct_lower_blockers: usize,
    /// `true` if the run ended in an unresolved deadlock.
    pub deadlocked: bool,
}

impl ProtocolRow {
    fn from_report(name: &'static str, metrics: &MetricsReport, outcome: &RunOutcome) -> Self {
        ProtocolRow {
            name,
            released: metrics.instances().count(),
            miss_ratio: metrics.miss_ratio(),
            total_blocking: metrics.total_blocking().raw(),
            max_blocking: metrics
                .instances()
                .map(|m| m.blocking.raw())
                .max()
                .unwrap_or(0),
            restarts: metrics.total_restarts(),
            max_sysceil: metrics.max_sysceil,
            max_distinct_lower_blockers: metrics.max_distinct_lower_blockers(),
            deadlocked: matches!(outcome, RunOutcome::Deadlock(_)),
        }
    }
}

/// Run `set` under every protocol in `kinds` (the evaluation line-up is
/// [`ProtocolKind::STANDARD`]) with the same config, a fresh instance
/// per run, and collect one row per protocol. Kinds that report
/// [`ProtocolKind::may_deadlock`] run with deadlock resolution enabled
/// automatically (their deadlocks would otherwise stop the run — every
/// repaired ceiling protocol is provably deadlock-free and unaffected).
pub fn compare_protocols(
    set: &TransactionSet,
    config: &SimConfig,
    kinds: &[ProtocolKind],
) -> Result<Vec<ProtocolRow>> {
    let mut rows = Vec::with_capacity(kinds.len());
    for &kind in kinds {
        let mut cfg = config.clone();
        if kind.may_deadlock() {
            cfg.resolve_deadlocks = true;
        }
        let result = Engine::new(set, cfg).run_kind(kind)?;
        rows.push(ProtocolRow::from_report(
            result.protocol,
            &result.metrics,
            &result.outcome,
        ));
    }
    Ok(rows)
}

/// Run one [`compare_protocols`] per sweep point on a thread pool.
///
/// `make` maps a point to its workload and config; each point then runs
/// the full [`ProtocolKind::STANDARD`] line-up in its own simulation
/// (runs are independent — a fresh protocol instance and engine per run
/// — so parallelism cannot perturb them). Results come back **in input
/// order** via [`rtdb_util::par_map`], so tables and CSV files built
/// from them are byte-identical to the sequential loop's.
pub fn compare_protocols_parallel<T, F>(points: &[T], make: F) -> Result<Vec<Vec<ProtocolRow>>>
where
    T: Sync,
    F: Fn(&T) -> Result<(TransactionSet, SimConfig)> + Sync,
{
    rtdb_util::par_map(points, |point| {
        let (set, config) = make(point)?;
        compare_protocols(&set, &config, &ProtocolKind::STANDARD)
    })
    .into_iter()
    .collect()
}

/// Format rows as an aligned text table.
pub fn format_table(rows: &[ProtocolRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>9} {:>11} {:>13} {:>13} {:>9} {:>12} {:>8} {:>10}",
        "protocol",
        "released",
        "miss-ratio",
        "tot-blocking",
        "max-blocking",
        "restarts",
        "max-sysceil",
        "1-block",
        "deadlock"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:>9} {:>11.4} {:>13} {:>13} {:>9} {:>12} {:>8} {:>10}",
            r.name,
            r.released,
            r.miss_ratio,
            r.total_blocking,
            r.max_blocking,
            r.restarts,
            r.max_sysceil.to_string(),
            r.max_distinct_lower_blockers,
            if r.deadlocked { "YES" } else { "no" }
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadParams;

    #[test]
    fn compare_runs_the_standard_lineup() {
        let w = WorkloadParams {
            templates: 4,
            items: 8,
            target_utilization: 0.5,
            seed: 11,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let cfg = SimConfig::with_horizon(2_000);
        let rows = compare_protocols(&w.set, &cfg, &ProtocolKind::STANDARD).unwrap();
        assert_eq!(rows.len(), ProtocolKind::STANDARD.len());
        for (r, k) in rows.iter().zip(ProtocolKind::STANDARD.iter()) {
            assert_eq!(r.name, k.name());
        }
        // The ceiling protocols never deadlock or restart.
        for r in &rows {
            if matches!(r.name, "PCP-DA" | "RW-PCP" | "PCP" | "CCP") {
                assert!(!r.deadlocked, "{} deadlocked", r.name);
                assert_eq!(r.restarts, 0, "{} restarted", r.name);
            }
        }
        let table = format_table(&rows);
        assert!(table.contains("PCP-DA"));
        assert!(table.contains("2PL-HP"));
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let points: Vec<u64> = (0..6).collect();
        let make = |&seed: &u64| {
            let w = WorkloadParams {
                templates: 3,
                items: 6,
                target_utilization: 0.5,
                seed,
                ..Default::default()
            }
            .generate()?;
            Ok((w.set, SimConfig::with_horizon(1_500)))
        };
        let par = compare_protocols_parallel(&points, make).unwrap();
        let seq: Vec<Vec<ProtocolRow>> = points
            .iter()
            .map(|p| {
                let (set, cfg) = make(p).unwrap();
                compare_protocols(&set, &cfg, &ProtocolKind::STANDARD).unwrap()
            })
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn pcpda_blocks_no_more_than_rwpcp() {
        // Paper §5: "transaction blocking that happens under PCP-DA must
        // happen under RW-PCP" — so total blocking under PCP-DA is never
        // larger on the same workload.
        for seed in 0..8 {
            let w = WorkloadParams {
                seed,
                target_utilization: 0.6,
                ..Default::default()
            }
            .generate()
            .unwrap();
            let cfg = SimConfig::with_horizon(3_000);
            let kinds = [ProtocolKind::PcpDa, ProtocolKind::RwPcp];
            let rows = compare_protocols(&w.set, &cfg, &kinds).unwrap();
            assert!(
                rows[0].total_blocking <= rows[1].total_blocking,
                "seed {seed}: PCP-DA blocking {} > RW-PCP {}",
                rows[0].total_blocking,
                rows[1].total_blocking
            );
            assert!(
                rows[0].max_sysceil <= rows[1].max_sysceil,
                "seed {seed}: PCP-DA ceiling above RW-PCP"
            );
        }
    }
}
