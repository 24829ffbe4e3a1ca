//! Golden fingerprints of simulator output.
//!
//! A refactor of the protocol state under the engine must leave every
//! run **byte-identical**. The differential test compares two stores of
//! the *same* build; this one pins the output itself: 40 seeded sets ×
//! every registry protocol × deadlock resolution on/off, folded per
//! protocol into one FNV-1a hash over everything a run produces —
//! history, trace events, segments, ceiling samples, metrics, final
//! database and the number of protocol decisions.
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
    ("PCP-DA", 0x0f78_37ff_f252_e19d),
    ("PCP-DA-literal", 0x4e36_ac6f_e42b_ae75),
    ("RW-PCP", 0x767d_216b_3645_53e1),
    ("PCP", 0x14cf_e2d3_3a9e_4841),
    ("CCP", 0xf1e6_e431_44fa_b957),
    ("2PL-PI", 0x5266_1ae1_4520_5bd5),
    ("2PL-HP", 0x6102_5202_f8dc_62ef),
    ("OCC-BC", 0xc820_f769_b112_67e9),
    ("Bamboo", 0x9fce_9574_1179_eb4d),
    ("Brook-2PL", 0x4105_4c97_4229_6d57),
    ("Naive-DA", 0x2408_c820_099b_59ff),
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
                .run_any(&mut protocol)
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
