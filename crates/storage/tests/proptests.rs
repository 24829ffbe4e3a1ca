//! Property tests for the storage substrate and its oracles.

use rtdb_storage::*;
use rtdb_types::*;
use rtdb_util::prop::{forall, vec_of, CASES};
use rtdb_util::Rng;

/// A tiny program: a list of (is_write, item) ops per transaction.
type Program = Vec<(bool, u32)>;

fn arb_programs(rng: &mut Rng) -> Vec<Program> {
    vec_of(rng, 1..5, |rng| {
        vec_of(rng, 1..5, |rng| (rng.bool(), rng.range_u32(0..5)))
    })
}

/// Build a transaction set from programs (unit durations).
fn set_of(programs: &[Program]) -> TransactionSet {
    let mut b = SetBuilder::new();
    for (i, prog) in programs.iter().enumerate() {
        let steps: Vec<Step> = prog
            .iter()
            .map(|&(w, item)| {
                if w {
                    Step::write(ItemId(item), 1)
                } else {
                    Step::read(ItemId(item), 1)
                }
            })
            .collect();
        let period = (steps.len() as u64 + 1) * 10;
        b.add(TransactionTemplate::new(format!("t{i}"), period, steps));
    }
    b.build().unwrap()
}

/// Execute the programs strictly serially (in the given order), recording
/// a faithful history.
fn run_serial(set: &TransactionSet, order: &[usize]) -> (History, Database) {
    let mut db = Database::new();
    let mut h = History::new();
    for &idx in order {
        let who = InstanceId::first(TxnId(idx as u32));
        let template = set.template(who.txn);
        h.push(Tick(0), who, EventKind::Begin);
        let mut ws = Workspace::new(who);
        for (i, step) in template.steps.iter().enumerate() {
            match step.op {
                Operation::Read(item) => {
                    let rec = ws.read(&db, item);
                    h.push(
                        Tick(1),
                        who,
                        EventKind::Read {
                            item,
                            value: rec.value,
                            version: rec.version,
                            own: rec.own,
                        },
                    );
                }
                Operation::Write(item) => {
                    let v = ws.write(i, item);
                    h.push(Tick(1), who, EventKind::StageWrite { item, value: v });
                }
                Operation::Compute => {}
            }
        }
        h.push(Tick(2), who, EventKind::Commit);
        for (item, value, version) in ws.commit_into(&mut db, Tick(2)) {
            h.push(
                Tick(2),
                who,
                EventKind::Install {
                    item,
                    value,
                    version,
                },
            );
        }
    }
    (h, db)
}

/// Any strictly serial execution passes both oracles.
#[test]
fn serial_histories_pass_both_oracles() {
    forall(CASES, |rng| {
        let programs = arb_programs(rng);
        let set = set_of(&programs);
        let order: Vec<usize> = (0..programs.len()).collect();
        let (h, db) = run_serial(&set, &order);

        let graph = SerializationGraph::build(&h);
        assert!(graph.find_cycle().is_none());

        let replay = replay_serial(&set, &h, &db);
        assert!(replay.is_serializable(), "{:?}", replay.violations);
    });
}

/// Serial execution in *any* order passes (commit order is the serial
/// order by construction).
#[test]
fn serial_in_reverse_order_passes() {
    forall(CASES, |rng| {
        let programs = arb_programs(rng);
        let set = set_of(&programs);
        let order: Vec<usize> = (0..programs.len()).rev().collect();
        let (h, db) = run_serial(&set, &order);
        assert!(replay_serial(&set, &h, &db).is_serializable());
        assert!(SerializationGraph::build(&h).find_cycle().is_none());
    });
}

/// The serialization graph's topological order always replays clean
/// on serial histories, and equals a valid serialization order.
#[test]
fn topological_order_exists_for_serial() {
    forall(CASES, |rng| {
        let programs = arb_programs(rng);
        let set = set_of(&programs);
        let order: Vec<usize> = (0..programs.len()).collect();
        let (h, _db) = run_serial(&set, &order);
        let graph = SerializationGraph::build(&h);
        let topo = graph.topological_order();
        assert!(topo.is_some());
        assert_eq!(topo.unwrap().len(), programs.len());
    });
}

/// Workspace invariants: reads of own staged writes return the staged
/// value; commit installs exactly the staged items; versions bump by
/// one per install.
#[test]
fn workspace_roundtrip() {
    forall(CASES, |rng| {
        let writes = vec_of(rng, 1..8, |rng| rng.range_u32(0..6));
        let mut db = Database::new();
        let who = InstanceId::first(TxnId(0));
        let mut ws = Workspace::new(who);
        for (i, &item) in writes.iter().enumerate() {
            let staged = ws.write(i, ItemId(item));
            let r = ws.read(&db, ItemId(item));
            assert!(r.own);
            assert_eq!(r.value, staged);
        }
        let distinct: std::collections::BTreeSet<u32> = writes.iter().copied().collect();
        let installed = ws.commit_into(&mut db, Tick(1));
        assert_eq!(installed.len(), distinct.len());
        for (item, value, version) in installed {
            assert_eq!(db.read(item).value, value);
            assert_eq!(db.read(item).version, version);
            assert_eq!(version, 1); // first writer of each item
        }
    });
}

/// Database version counters are per-item and monotonically increase
/// by one per install.
#[test]
fn version_monotonicity() {
    forall(CASES, |rng| {
        let ops = vec_of(rng, 1..20, |rng| (rng.range_u32(0..4), rng.next_u64()));
        let mut db = Database::new();
        let who = InstanceId::first(TxnId(0));
        let mut expected: std::collections::BTreeMap<u32, u64> = Default::default();
        for (i, &(item, val)) in ops.iter().enumerate() {
            let v = db.install(who, ItemId(item), Value(val), Tick(i as u64));
            let e = expected.entry(item).or_insert(0);
            *e += 1;
            assert_eq!(v, *e);
            assert_eq!(db.read(ItemId(item)).value, Value(val));
        }
    });
}

// ---------------------------------------------------------------------
// Snapshot path properties: multiversion reads against a map-store
// oracle that keeps the *full* database state at every epoch.
// ---------------------------------------------------------------------

/// A random commit schedule: per commit, the set of `(item, value)`
/// writes it installs. Versions are derived per item (monotone +1).
type Schedule = Vec<Vec<(u32, u64)>>;

fn arb_schedule(rng: &mut Rng) -> Schedule {
    vec_of(rng, 1..30, |rng| {
        let mut items: Vec<u32> = vec_of(rng, 0..4, |rng| rng.range_u32(0..6));
        items.sort_unstable();
        items.dedup();
        items
            .into_iter()
            .map(|item| (item, rng.next_u64()))
            .collect()
    })
}

/// Each commit's installs as [`SnapshotStore::publish`] takes them, with
/// per-item versions counted up from 1.
fn installs(schedule: &Schedule) -> Vec<Vec<(ItemId, VersionedValue)>> {
    let mut versions: std::collections::BTreeMap<u32, u64> = Default::default();
    schedule
        .iter()
        .map(|commit| {
            commit
                .iter()
                .map(|&(item, value)| {
                    let v = versions.entry(item).or_insert(0);
                    *v += 1;
                    let vv = VersionedValue {
                        value: Value(value),
                        version: *v,
                        writer: Some(InstanceId::first(TxnId(0))),
                        installed_at: Tick::ZERO,
                    };
                    (ItemId(item), vv)
                })
                .collect()
        })
        .collect()
}

/// Map-store oracle: `states[s]` is the complete `item -> value` map
/// after exactly the first `s` commits — serial execution at the epoch,
/// with none of the chain/pruning machinery under test.
fn epoch_states(
    installs: &[Vec<(ItemId, VersionedValue)>],
) -> Vec<std::collections::BTreeMap<ItemId, VersionedValue>> {
    let mut states = vec![std::collections::BTreeMap::new()];
    for commit in installs {
        let mut state = states.last().unwrap().clone();
        state.extend(commit.iter().copied());
        states.push(state);
    }
    states
}

/// Every `(stamp, item)` read equals serial execution at that epoch, per
/// the map-store oracle.
#[test]
fn snapshot_reads_equal_serial_execution_at_epoch() {
    forall(CASES, |rng| {
        let installs = installs(&arb_schedule(rng));
        let states = epoch_states(&installs);
        let snap = SnapshotStore::new(6, 1);
        snap.pin(0); // hold stamp 0 so nothing is reclaimed mid-check
        for writes in &installs {
            snap.publish(writes);
        }
        assert_eq!(snap.stamp(), installs.len() as u64);
        for (stamp, state) in states.iter().enumerate() {
            for item in (0..6).map(ItemId) {
                let got = snap.read_at(item, stamp as u64);
                assert_eq!(got, state.get(&item).copied(), "stamp {stamp}, {item:?}");
            }
        }
    });
}

/// A reader pinned at a random stamp keeps every read at or above its pin
/// exact through the sweep that raises the floor to it (the epoch-GC rule
/// loses only unreachable history), and the sweep does reclaim: no chain
/// keeps more than the pinned version and the ones published after it.
#[test]
fn prune_preserves_reads_at_or_above_floor() {
    forall(CASES, |rng| {
        let installs = installs(&arb_schedule(rng));
        let states = epoch_states(&installs);
        let snap = SnapshotStore::new(6, 1);
        let pin_at = rng.range_inclusive_usize(0, installs.len());
        for writes in &installs[..pin_at] {
            snap.publish(writes);
        }
        let pinned = snap.pin(0);
        assert_eq!(pinned, pin_at as u64);
        for writes in &installs[pin_at..] {
            snap.publish(writes);
        }
        snap.advance_floor();
        assert!(snap.max_chain_len() <= installs.len() - pin_at + 1);
        for stamp in pinned..=snap.stamp() {
            for item in (0..6).map(ItemId) {
                assert_eq!(
                    snap.read_at(item, stamp),
                    states[stamp as usize].get(&item).copied(),
                    "pinned at {pinned}: stamp {stamp}, {item:?}"
                );
            }
        }
        snap.unpin(0);
    });
}

/// Memory flatness: an unpinned store soaked with far more publishes
/// than the sweep interval keeps every chain bounded by the interval
/// (plus the burst since the last sweep), and a pinned reader only ever
/// holds history back to its own stamp — released, the store collapses.
#[test]
fn epoch_gc_keeps_chains_flat() {
    forall(CASES, |rng| {
        let publishes = rng.range_inclusive_u64(700, 1_500);
        let hot_items = rng.range_inclusive_u64(1, 3) as u32;
        let snap = SnapshotStore::new(hot_items as usize, 2);
        let pin_at = rng.range_inclusive_u64(0, publishes / 2);
        let mut pinned = None;
        for i in 1..=publishes {
            if i == pin_at {
                pinned = Some(snap.pin(0));
            }
            let writes: Vec<(ItemId, VersionedValue)> = (0..hot_items)
                .map(|item| {
                    (
                        ItemId(item),
                        VersionedValue {
                            value: Value(i),
                            version: i,
                            writer: None,
                            installed_at: Tick::ZERO,
                        },
                    )
                })
                .collect();
            snap.publish(&writes);
        }
        // The pinned snapshot still reads exactly.
        if let Some(s) = pinned {
            let got = snap.read_at(ItemId(0), s);
            assert_eq!(got.map(|v| v.version), (s > 0).then_some(s));
            snap.unpin(0);
        }
        snap.advance_floor();
        // With no pins the chains collapse to one entry each, and the
        // latest state survives.
        assert_eq!(snap.max_chain_len(), 1);
        assert_eq!(
            snap.read_at(ItemId(0), snap.stamp()).map(|v| v.version),
            Some(publishes)
        );
    });
}
