//! Compare every protocol on randomized workloads at increasing data
//! contention — a miniature of the repository's E9 experiment.
//!
//! ```sh
//! cargo run --release --example protocol_comparison
//! ```

use rtdb::prelude::*;
use rtdb::sim::sweep;

fn main() {
    for &hotspot_prob in &[0.2, 0.5, 0.8] {
        let workload = WorkloadParams {
            templates: 6,
            items: 16,
            target_utilization: 0.6,
            hotspot_items: 3,
            hotspot_prob,
            write_fraction: 0.4,
            seed: 7,
            ..Default::default()
        }
        .generate()
        .expect("valid workload");

        println!(
            "== contention {:.0}% (U={:.2}, {} templates) ==",
            hotspot_prob * 100.0,
            workload.set.total_utilization(),
            workload.set.len()
        );
        let rows = compare_protocols(
            &workload.set,
            &SimConfig::with_horizon(20_000),
            &ProtocolKind::STANDARD,
        )
        .expect("sweep succeeds");
        println!("{}", sweep::format_table(&rows));
    }
    println!("note: identical workloads and arrival patterns per table;");
    println!("PCP-DA never blocks more than RW-PCP and never restarts.");
}
