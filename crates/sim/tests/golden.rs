//! Golden fingerprints of simulator output.
//!
//! A refactor of the protocol state under the engine must leave every
//! run **byte-identical**. This test pins the output itself: 40 seeded
//! sets × every registry protocol × deadlock resolution on/off, folded
//! per protocol into one FNV-1a hash over everything a run produces —
//! history, trace events, segments, ceiling samples, metrics, final
//! database and the number of protocol decisions.
//!
//! It is also the only oracle of the engine's slot arena: a broken arena
//! (a live index out of order, a stale field on a recycled slot) changes
//! a fingerprint here. DESIGN.md §6b lists the mutants it was checked
//! against.
//!
//! A mismatch means observable behaviour changed. If the change is
//! intended, run with `--nocapture`, copy the printed table over
//! [`GOLDEN`] and say why in the commit.

use rtdb_core::ProtocolKind;
use rtdb_sim::{instantiate, Engine, SimConfig, WorkloadParams};
use rtdb_util::Rng;
use std::fmt::Debug;

const SETS: u64 = 40;
const BASE_SEED: u64 = 0x0060_1DE2;

/// Per-protocol fingerprints, in [`ProtocolKind::ALL`] order.
const GOLDEN: [(&str, u64); 11] = [
    ("PCP-DA", 0x2cf9_2698_19c7_f325),
    ("PCP-DA-literal", 0x93ac_173a_cb78_d5ed),
    ("RW-PCP", 0x0686_39e1_945e_ed19),
    ("PCP", 0x07fd_4654_0407_5ce1),
    ("CCP", 0x502c_0712_77a3_d95f),
    ("2PL-PI", 0x4d46_c396_20dd_3335),
    ("2PL-HP", 0xc9ea_d05a_670d_c86f),
    ("OCC-BC", 0x2812_2da5_80dd_5c19),
    ("Bamboo", 0x66cf_6d33_5769_8e2d),
    ("Brook-2PL", 0x89d3_dba6_9810_b76f),
    ("Naive-DA", 0xe3c7_7412_f08e_7199),
];

/// 64-bit FNV-1a, fed the `Debug` rendering of each output.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, part: &dyn Debug) {
        for b in format!("{part:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn params(rng: &mut Rng) -> WorkloadParams {
    WorkloadParams {
        templates: rng.range_inclusive_usize(2, 6),
        items: rng.range_inclusive_usize(4, 12),
        target_utilization: rng.range_inclusive_u64(1, 7) as f64 / 10.0,
        min_period: 30,
        max_period: 300,
        min_data_steps: 1,
        max_data_steps: 4,
        write_fraction: rng.f64() * 0.8,
        hotspot_items: 3,
        hotspot_prob: rng.f64() * 0.9,
        zipf_theta: None,
        partitions: 1,
        cross_partition_prob: 0.0,
        read_only_templates: 0,
        hot_first: rng.range_inclusive_usize(0, 1) == 1,
        seed: rng.next_u64(),
    }
}

fn fingerprint(kind: ProtocolKind) -> u64 {
    let mut h = Fnv::new();
    for i in 0..SETS {
        let mut rng = Rng::seed(BASE_SEED + i);
        let set = params(&mut rng).generate().expect("valid params").set;
        for resolve in [true, false] {
            let mut cfg = SimConfig::with_horizon(2_000);
            cfg.resolve_deadlocks = resolve;
            let mut protocol = instantiate(kind);
            let run = Engine::new(&set, cfg)
                .run(&mut protocol)
                .expect("run succeeds");
            h.feed(&run.outcome);
            h.feed(&run.final_clock);
            h.feed(&run.history.events());
            h.feed(&run.trace.events());
            h.feed(&run.trace.segments());
            h.feed(&run.trace.ceiling_samples());
            h.feed(&run.metrics);
            h.feed(&run.db.snapshot());
            h.feed(&protocol.requests());
        }
    }
    h.0
}

#[test]
fn simulator_output_matches_the_golden_fingerprints() {
    let got: Vec<(&str, u64)> = ProtocolKind::ALL
        .iter()
        .map(|&kind| (kind.name(), fingerprint(kind)))
        .collect();
    for (name, hash) in &got {
        println!("    (\"{name}\", {hash:#018x}),");
    }
    assert_eq!(got, GOLDEN);
}
