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

use rtdb_core::{Effect, GrantRule, ProtocolKind};
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
    ("PCP-DA", 0xe127_c95c_209e_a1a1),
    ("PCP-DA-literal", 0xf689_b01b_e118_43bd),
    ("RW-PCP", 0xc063_2a82_db8a_ca69),
    ("PCP", 0x0c02_edba_9832_1509),
    ("CCP", 0x6dd4_7ee1_c6a3_bf5d),
    ("2PL-PI", 0xcb5e_74ad_73b7_95d1),
    ("2PL-HP", 0x216b_49aa_4e71_636b),
    ("OCC-BC", 0x8172_5ef0_bd10_4b8f),
    ("Bamboo", 0x1b6f_a925_2050_4757),
    ("Brook-2PL", 0xbd2a_df7d_f7fc_6787),
    ("Naive-DA", 0x4c8d_590b_89e8_f818),
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
/// for tick, in order; every arrival is its instance's first Begin. A
/// grant names its locking condition exactly under PCP-DA and
/// PCP-DA-literal, LC1 exactly for a write.
#[test]
fn the_trace_agrees_with_the_history() {
    for kind in ProtocolKind::ALL {
        let names_rules = matches!(kind, ProtocolKind::PcpDa | ProtocolKind::PcpDaLiteral);
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
                    Effect::Granted(r, rule) => {
                        let lc1 = r.mode == LockMode::Write;
                        assert!(
                            rule.is_some() == names_rules
                                && rule.is_none_or(|rule| (rule == GrantRule::Lc1) == lc1),
                            "{kind}: {r:?} granted by {rule:?}"
                        );
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
