//! Golden fingerprints of simulator output.
//!
//! A refactor of the protocol state under the engine must leave every
//! run **byte-identical**. This test pins the output itself: 40 seeded
//! sets × every registry protocol × deadlock resolution on/off, folded
//! per protocol into one FNV-1a hash over everything a run produces —
//! history, trace (events with the instances they name, segments,
//! ceiling samples), metrics, final database and the number of protocol
//! decisions. The same runs check that the trace and the history, two
//! logs of one run, agree.
//!
//! It is also the only oracle of the engine's slot arena: a broken arena
//! (a live index out of order, a stale field on a recycled slot) changes
//! a fingerprint here. DESIGN.md §6b lists the mutants it was checked
//! against.
//!
//! A mismatch means observable behaviour changed. If the change is
//! intended, run with `--nocapture`, copy the printed table over
//! [`GOLDEN`] and say why in the commit.

use rtdb_core::{Effect, ProtocolKind};
use rtdb_sim::{instantiate, AnyProtocol, Engine, RunResult, SimConfig, WorkloadParams};
use rtdb_storage::EventKind;
use rtdb_types::{InstanceId, ItemId, LockMode, Tick};
use rtdb_util::Rng;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;

const SETS: u64 = 40;
const BASE_SEED: u64 = 0x0060_1DE2;

/// Per-protocol fingerprints, in [`ProtocolKind::ALL`] order.
const GOLDEN: [(&str, u64); 11] = [
    ("PCP-DA", 0x6e80_09f9_9d95_09cf),
    ("PCP-DA-literal", 0xc1a4_7ee6_c55b_37cd),
    ("RW-PCP", 0x534e_a64b_e2eb_7931),
    ("PCP", 0xef14_e04d_fead_5851),
    ("CCP", 0xdf7f_f6bf_4ea8_e1b9),
    ("2PL-PI", 0x0014_6db9_2c39_e387),
    ("2PL-HP", 0x695b_15d1_4e80_26d3),
    ("OCC-BC", 0x2688_4485_e797_9327),
    ("Bamboo", 0x04a9_8260_ab1b_c95b),
    ("Brook-2PL", 0x83c1_1d51_19c2_8737),
    ("Naive-DA", 0xd0f9_2984_5f87_0884),
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

/// Every seeded run of `kind`: each set, with deadlock resolution on and
/// off, handed to `f` with the protocol that ran it.
fn each_run(kind: ProtocolKind, mut f: impl FnMut(&RunResult, &AnyProtocol)) {
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
            f(&run, &protocol);
        }
    }
}

fn fingerprint(kind: ProtocolKind) -> u64 {
    let mut h = Fnv::new();
    each_run(kind, |run, protocol| {
        h.feed(&run.outcome);
        h.feed(&run.final_clock);
        h.feed(&run.history.events());
        h.feed(&run.trace);
        h.feed(&run.metrics);
        h.feed(&run.db.snapshot());
        h.feed(&protocol.requests());
    });
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

/// The trace (the effects the engine applied, stamped with its clock) and
/// the history (the data operations the kernel logged) are written by
/// different hands and must tell one story: every grant is a read (read
/// mode) or a staged write (write mode) of its item by its instance at
/// its tick; the commits and aborts are the history's, one for one, tick
/// for tick, in order; every arrival is its instance's first Begin.
#[test]
fn the_trace_agrees_with_the_history() {
    for kind in ProtocolKind::ALL {
        each_run(kind, |run, _| {
            let mut ops: HashMap<(Tick, InstanceId, ItemId, LockMode), usize> = HashMap::new();
            let (mut ends, mut begins) = (Vec::new(), Vec::new());
            let mut begun = HashSet::new();
            for e in run.history.events() {
                let (at, who) = (e.at, e.instance);
                match e.kind {
                    EventKind::Read { item, .. } => {
                        *ops.entry((at, who, item, LockMode::Read)).or_default() += 1;
                    }
                    EventKind::StageWrite { item, .. } => {
                        *ops.entry((at, who, item, LockMode::Write)).or_default() += 1;
                    }
                    EventKind::Commit => ends.push((at, who, true)),
                    EventKind::Abort => ends.push((at, who, false)),
                    EventKind::Begin if begun.insert(who) => begins.push((at, who)),
                    _ => {}
                }
            }
            let (mut traced_ends, mut arrivals) = (Vec::new(), Vec::new());
            for &(at, e) in run.trace.events() {
                match e {
                    Effect::Granted(r) => {
                        let op = ops.get_mut(&(at, r.who, r.item, r.mode));
                        match op.filter(|n| **n > 0) {
                            Some(n) => *n -= 1,
                            None => {
                                panic!("{kind}: {r:?} granted at {at:?} with no data operation")
                            }
                        }
                    }
                    Effect::Committed(who) => traced_ends.push((at, who, true)),
                    Effect::Aborted(who, ..) => traced_ends.push((at, who, false)),
                    Effect::Arrived(who) => arrivals.push((at, who)),
                    _ => {}
                }
            }
            assert_eq!(traced_ends, ends, "{kind}: commits and aborts");
            assert_eq!(arrivals, begins, "{kind}: arrivals");
        });
    }
}
