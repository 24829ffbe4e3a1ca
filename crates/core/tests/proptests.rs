//! Property tests for the concurrency-control framework.

use rtdb_core::*;
use rtdb_types::*;
use rtdb_util::prop::{forall, vec_of, CASES};
use rtdb_util::Rng;

fn inst(t: u32) -> InstanceId {
    InstanceId::first(TxnId(t))
}

/// Lock table: grants and releases are exact inverses; `release_all`
/// returns exactly what was granted (deduplicated by (item, mode)).
#[test]
fn lock_table_roundtrip() {
    forall(CASES, |rng| {
        let grants = vec_of(rng, 0..20, |rng| {
            (rng.range_u32(0..4), rng.range_u32(0..6), rng.bool())
        });
        let mut lt = LockTable::new();
        let mut expect: std::collections::BTreeSet<(u32, u32, bool)> = Default::default();
        for &(who, item, write) in &grants {
            let mode = if write {
                LockMode::Write
            } else {
                LockMode::Read
            };
            lt.grant(inst(who), ItemId(item), mode);
            expect.insert((who, item, write));
        }
        for who in 0..4u32 {
            let mine: std::collections::BTreeSet<(u32, u32, bool)> = expect
                .iter()
                .filter(|&&(w, _, _)| w == who)
                .copied()
                .collect();
            let held: std::collections::BTreeSet<(u32, u32, bool)> = lt
                .held_by(inst(who))
                .map(|l| (who, l.item.0, l.mode == LockMode::Write))
                .collect();
            assert_eq!(&mine, &held);
            let released = lt.release_all(inst(who)).to_vec();
            assert_eq!(released.len(), mine.len());
        }
        assert_eq!(lt.locked_items(), 0);
    });
}

/// Priority inheritance: running priority is always >= base, equals
/// base with no edges, and equals the max over base + blocked
/// requesters' running priorities (fixpoint property).
#[test]
fn inheritance_fixpoint() {
    forall(CASES, |rng| {
        let bases = vec_of(rng, 2..8, |rng| rng.range_u32(0..20));
        let edges = vec_of(rng, 0..8, |rng| {
            (rng.range_usize(0..8), rng.range_usize(0..8))
        });
        let n = bases.len();
        let levels: Vec<u32> = (0..n as u32).map(|i| bases[i as usize] + i * 100).collect(); // distinct
        let set = one_step_templates(n)
            .build_with_priorities(&levels)
            .unwrap();
        let mut k = StateKernel::new(&set, None);
        for i in 0..n {
            k.begin(inst(i as u32), None);
        }
        // Apply edges (skip self-edges and out-of-range, one blocker per
        // blocked instance — last wins, like the engine).
        let mut applied: std::collections::BTreeMap<usize, usize> = Default::default();
        for &(blocked, blocker) in &edges {
            if blocked < n && blocker < n && blocked != blocker {
                // Avoid trivial cycles for this test: only allow edges
                // from a higher-index node to a lower one.
                if blocked > blocker {
                    k.wait_on(inst(blocked as u32), &[inst(blocker as u32)]);
                    applied.insert(blocked, blocker);
                }
            }
        }
        // running >= base everywhere.
        for i in 0..n {
            let me = inst(i as u32);
            assert!(k.running_priority(me) >= k.base_priority(me));
        }
        // Fixpoint equation.
        for i in 0..n {
            let me = inst(i as u32);
            let inherited = applied
                .iter()
                .filter(|&(_, &blocker)| blocker == i)
                .map(|(&blocked, _)| k.running_priority(inst(blocked as u32)))
                .max();
            let expected = match inherited {
                Some(p) => std::cmp::max(k.base_priority(me), p),
                None => k.base_priority(me),
            };
            assert_eq!(k.running_priority(me), expected);
        }
        // Clearing all edges restores bases.
        for &blocked in applied.keys() {
            k.wake(inst(blocked as u32));
        }
        for i in 0..n {
            let me = inst(i as u32);
            assert_eq!(k.running_priority(me), k.base_priority(me));
        }
    });
}

/// `n` one-step templates, for tests that only need instances.
fn one_step_templates(n: usize) -> SetBuilder {
    let mut b = SetBuilder::new();
    for t in 0..n {
        b.add(TransactionTemplate::new(
            format!("t{t}"),
            10,
            vec![Step::compute(1)],
        ));
    }
    b
}

/// After random begin/remove churn with random wait edges, reading the
/// running priority through the live list's record slots agrees with
/// reading it by id, and both with a model: the highest base priority
/// among the instances with a wait path to it, itself included. The slots
/// stay parallel to the live list as instances come and go and records
/// are reused.
#[test]
fn running_priority_by_slot_matches_by_id() {
    let set = one_step_templates(4).build().unwrap();
    forall(CASES, |rng| {
        let mut k = StateKernel::new(&set, None);
        let mut next_seq = [0u32; 4];
        let mut waits: std::collections::BTreeMap<InstanceId, InstanceId> = Default::default();
        for _ in 0..rng.range_usize(1..40) {
            let live = k.active_instances().to_vec();
            match rng.range_u32(0..3) {
                0 if !live.is_empty() => {
                    let gone = live[rng.range_usize(0..live.len())];
                    k.remove(gone);
                    waits.retain(|&who, &mut on| who != gone && on != gone);
                }
                1 if live.len() >= 2 => {
                    let who = live[rng.range_usize(0..live.len())];
                    let on = live[rng.range_usize(0..live.len())];
                    if on != who {
                        k.wait_on(who, &[on]);
                        waits.insert(who, on);
                    }
                }
                _ => {
                    let t = rng.range_usize(0..4);
                    k.begin(InstanceId::new(TxnId(t as u32), next_seq[t]), None);
                    next_seq[t] += 1;
                }
            }
            let reaches = |from: InstanceId, to: InstanceId| {
                let mut at = from;
                for _ in 0..=waits.len() {
                    if at == to {
                        return true;
                    }
                    match waits.get(&at) {
                        Some(&on) => at = on,
                        None => return false,
                    }
                }
                false
            };
            let slots = k.active_slots();
            let live = k.active_instances();
            assert_eq!(slots.len(), live.len());
            for (&id, &s) in live.iter().zip(slots) {
                let expected = live
                    .iter()
                    .filter(|&&w| reaches(w, id))
                    .map(|w| set.priority_of(w.txn))
                    .max();
                assert_eq!(k.slot_of(id), Some(s as usize));
                assert_eq!(Some(k.record_at(s as usize).running), expected);
                assert_eq!(k.record_at(s as usize).running, k.running_priority(id));
            }
        }
    });
}

/// Deadlock search: wait edges that all point from higher indices to
/// strictly lower ones are acyclic; a back edge closing any of them makes
/// a cycle. The kernel's search over its own edges finds exactly the
/// cycle the shared search finds over a copy of them, every step on it is
/// an edge, and the victim is its lowest base priority, ties (two
/// instances of one template) toward the smaller id.
#[test]
fn waitfor_cycle_detection() {
    let set = {
        let mut b = SetBuilder::new();
        for t in 0..5u64 {
            b.add(TransactionTemplate::new(
                format!("t{t}"),
                10 * (t + 1),
                vec![Step::compute(1)],
            ));
        }
        b.build_rate_monotonic().unwrap()
    };
    // Ten instances, two per template, in ascending id order.
    let node = |i: usize| InstanceId::new(TxnId(i as u32 / 2), i as u32 % 2);
    type Waits = std::collections::BTreeMap<InstanceId, Vec<InstanceId>>;
    let shared = |waits: &Waits| {
        rtdb_storage::find_cycle(waits.keys().copied(), |n| {
            waits.get(&n).map_or(&[], Vec::as_slice)
        })
    };
    // The kernel's cycle search, as a reporting kernel names it: the
    // first cycle and the victim it would abort.
    struct Grant;
    impl<V: EngineView + ?Sized> ProtocolFor<V> for Grant {
        fn name(&self) -> &'static str {
            "grant"
        }
        fn request(&mut self, _: &V, _: LockRequest) -> Decision {
            Decision::Grant(None)
        }
    }
    let first_cycle = |k: &mut StateKernel<'_>| {
        let mut fx = Effects::default();
        k.resolve_cycles(&mut Grant, || Tick(0), &mut fx);
        match *fx.log() {
            [] => None,
            [Effect::Cycle(cycle, victim)] => Some((fx.ids(cycle).to_vec(), victim)),
            ref other => panic!("a reporting kernel only reports: {other:?}"),
        }
    };
    forall(CASES, |rng| {
        let edges = vec_of(rng, 1..15, |rng| {
            (rng.range_usize(1..10), rng.range_usize(0..10))
        });
        let down: Vec<(usize, usize)> = edges.into_iter().filter(|&(a, b)| b < a).collect();
        let mut waits = Waits::new();
        for &(a, b) in &down {
            let on = waits.entry(node(a)).or_default();
            if !on.contains(&node(b)) {
                on.push(node(b));
            }
        }
        let mut k = StateKernel::new(&set, None).reporting_deadlocks();
        (0..10).for_each(|i| {
            k.begin(node(i), None);
        });
        for (&who, on) in &waits {
            k.wait_on(who, on);
        }
        assert_eq!(first_cycle(&mut k), None);
        assert_eq!(shared(&waits), None);

        if let Some(&(a, b)) = down.first() {
            // Close the loop: b -> a.
            let on = waits.entry(node(b)).or_default();
            on.push(node(a));
            k.wait_on(node(b), on);
            let (cycle, victim) = first_cycle(&mut k).expect("a back edge closes a cycle");
            assert_eq!(Some(&cycle), shared(&waits).as_ref());
            assert!(cycle.len() >= 2);
            for (i, n) in cycle.iter().enumerate() {
                assert!(waits[n].contains(&cycle[(i + 1) % cycle.len()]));
            }
            let lowest = cycle
                .iter()
                .copied()
                .min_by_key(|&v| (set.priority_of(v.txn), v));
            assert_eq!(Some(victim), lowest);
        }
    });
}

/// Generate a random transaction set over a 5-item space.
fn random_set(rng: &mut Rng) -> TransactionSet {
    let ops = vec_of(rng, 2..6, |rng| {
        vec_of(rng, 1..4, |rng| (ItemId(rng.range_u32(0..5)), rng.bool()))
    });
    let mut b = SetBuilder::new();
    for (i, txn_ops) in ops.iter().enumerate() {
        let steps: Vec<Step> = txn_ops
            .iter()
            .map(|&(item, w)| {
                if w {
                    Step::write(item, 1)
                } else {
                    Step::read(item, 1)
                }
            })
            .collect();
        b.add(TransactionTemplate::new(
            format!("t{i}"),
            (steps.len() as u64 + 1) * 10,
            steps,
        ));
    }
    b.build().unwrap()
}

/// Generate a random transaction set plus a legal-ish random lock state
/// over its instances (the ceiling computations don't require lock
/// compatibility, only membership).
fn random_set_and_locks(rng: &mut Rng) -> (TransactionSet, LockTable) {
    let set = random_set(rng);
    let n = set.len();
    let mut lt = LockTable::new();
    for _ in 0..rng.range_usize(0..8) {
        let who = rng.range_usize(0..6);
        if who < n {
            let mode = if rng.bool() {
                LockMode::Write
            } else {
                LockMode::Read
            };
            lt.grant(inst(who as u32), ItemId(rng.range_u32(0..5)), mode);
        }
    }
    (set, lt)
}

/// Ceiling computations agree with brute force on random lock states.
#[test]
fn sysceil_matches_bruteforce() {
    forall(CASES, |rng| {
        let (set, lt) = random_set_and_locks(rng);
        let ceilings = CeilingTable::new(&set);
        let n = set.len();

        for me in 0..n {
            let me = inst(me as u32);
            // Brute-force PCP-DA Sysceil: max Wceil over items read-locked
            // by others.
            let mut expected = Ceiling::Dummy;
            for item in (0..5).map(ItemId) {
                if lt.readers(item).any(|r| r != me) {
                    expected = expected.max(set.wceil(item));
                }
            }
            assert_eq!(ceilings.pcpda_sysceil(&lt, me).ceiling, expected);

            // Brute-force RW-PCP Sysceil.
            let mut expected = Ceiling::Dummy;
            for item in (0..5).map(ItemId) {
                if lt.writers(item).any(|w| w != me) {
                    expected = expected.max(set.aceil(item));
                }
                if lt.readers(item).any(|r| r != me) {
                    expected = expected.max(set.wceil(item));
                }
            }
            assert_eq!(ceilings.rwpcp_sysceil(&lt, me).ceiling, expected);
        }
    });
}

/// A set built to stress the index's level table, with the instances and
/// items a lock sequence should draw from. Three shapes: the small dense
/// set of [`random_set`]; the same with sparse priorities up to
/// `u32::MAX - 1` (levels are ranks, not raw priorities); and 66–80
/// templates each owning an item, so the set has more than 64 distinct
/// ceiling values and the occupancy mask more than one word — there the
/// sequence draws from items whose ceilings sit around the word boundary.
fn leveled_set(rng: &mut Rng) -> (TransactionSet, Vec<InstanceId>, Vec<ItemId>) {
    let all = |set: &TransactionSet| (0..set.len() as u32).map(inst).collect();
    match rng.range_u32(0..3) {
        0 => {
            let set = random_set(rng);
            let who = all(&set);
            (set, who, (0..5).map(ItemId).collect())
        }
        1 => {
            let dense = random_set(rng);
            let mut levels = vec![u32::MAX - 1, 0, 1 << 31, 64, 63, 1_000_003];
            levels.truncate(dense.len());
            let mut b = SetBuilder::new();
            for t in dense.templates() {
                b.add(t.clone());
            }
            let set = b.build_with_priorities(&levels).unwrap();
            let who = all(&set);
            (set, who, (0..5).map(ItemId).collect())
        }
        _ => {
            let n = rng.range_u32(66..81);
            let mut b = SetBuilder::new();
            let access = |rng: &mut Rng, item| {
                if rng.bool() {
                    Step::write(item, 1)
                } else {
                    Step::read(item, 1)
                }
            };
            for t in 0..n {
                // Own item first, then one or two of higher-priority
                // owners: `Aceil(item t)` stays this template's priority,
                // so there are `n` distinct ceiling values.
                let mut steps = vec![access(rng, ItemId(t))];
                for _ in 0..rng.range_usize(1..3) {
                    let shared = ItemId(rng.range_u32(0..t + 1));
                    steps.push(access(rng, shared));
                }
                b.add(TransactionTemplate::new(format!("t{t}"), 100, steps));
            }
            let set = b.build().unwrap();
            let distinct: std::collections::BTreeSet<Ceiling> =
                (0..n).map(|t| set.aceil(ItemId(t))).collect();
            assert!(distinct.len() > 64);
            // Template `t` has priority `n - 1 - t`: items `n-66..n-62`
            // carry ceilings of rank 61..=65, either side of bit 63/64.
            let mut items: Vec<ItemId> = (n - 66..n - 61).map(ItemId).collect();
            items.push(ItemId(0));
            items.push(ItemId(n - 1));
            let who = vec_of(rng, 3..7, |rng| inst(rng.range_u32(0..n)));
            (set, who, items)
        }
    }
}

/// Differential oracle for the incremental [`CeilingIndex`]: random
/// grant / release / upgrade / release-all sequences, applied in
/// lock-step to a table indexing every flavor, a table indexing one
/// declared flavor (the other two must answer through their scans) and a
/// plain one, must yield identical `SysCeil` values — ceiling **and**
/// holders, in order — from the public queries and the from-scratch scans
/// of the plain table, and the level queries the scans' ceiling, for all
/// three protocol flavors, after every single transition.
#[test]
fn ceiling_index_matches_scans_differentially() {
    forall(CASES, |rng| {
        let (set, who, items) = leveled_set(rng);
        let ceilings = CeilingTable::new(&set);
        let declared = CeilingFlavor::ALL[rng.range_usize(0..3)];
        let mut tables = [
            LockTable::with_index(&ceilings),
            LockTable::with_flavor(&ceilings, Some(declared)),
            LockTable::new(),
        ];
        for f in CeilingFlavor::ALL {
            let maintained = |t: &LockTable| t.index().and_then(|ix| ix.sysceil(f, inst(0)));
            assert!(maintained(&tables[0]).is_some());
            assert_eq!(maintained(&tables[1]).is_some(), f == declared);
        }

        let check = |tables: &[LockTable; 3]| {
            let [full, one, plain] = tables;
            // Every participant, plus a pure outsider whose query
            // excludes nothing.
            let outsider = inst(set.len() as u32);
            for &me in who.iter().chain([&outsider]) {
                let pcpda = ceilings.pcpda_sysceil_scan(plain, me);
                let rwpcp = ceilings.rwpcp_sysceil_scan(plain, me);
                let pcp = ceilings.pcp_sysceil_scan(plain, me);
                assert!(pcpda.holders.windows(2).all(|w| w[0] < w[1]));
                for table in [full, one] {
                    assert_eq!(ceilings.pcpda_sysceil(table, me), pcpda);
                    assert_eq!(ceilings.rwpcp_sysceil(table, me), rwpcp);
                    assert_eq!(ceilings.pcp_sysceil(table, me), pcp);
                    assert_eq!(ceilings.pcpda_sysceil_level(table, me), pcpda.ceiling);
                    assert_eq!(ceilings.rwpcp_sysceil_level(table, me), rwpcp.ceiling);
                    assert_eq!(ceilings.pcp_sysceil_level(table, me), pcp.ceiling);
                }
                // The index's level query itself, which the table's
                // entry points check only while the oracles are on.
                let ix = full.index().expect("every flavor is indexed");
                for (f, scan) in CeilingFlavor::ALL.into_iter().zip([&pcpda, &rwpcp, &pcp]) {
                    assert_eq!(ix.sysceil_level(f, me), Some(scan.ceiling), "{f:?}");
                }
            }
        };

        check(&tables);
        for _ in 0..rng.range_usize(4..32) {
            let me = who[rng.range_usize(0..who.len())];
            let item = items[rng.range_usize(0..items.len())];
            let mode = if rng.bool() {
                LockMode::Write
            } else {
                LockMode::Read
            };
            match rng.range_u32(0..12) {
                // Grants dominate so the tables fill up.
                0..=5 => tables.iter_mut().for_each(|t| t.grant(me, item, mode)),
                // An upgrade, in either order, checked half-way too.
                6..=7 => {
                    tables.iter_mut().for_each(|t| t.grant(me, item, mode));
                    check(&tables);
                    tables
                        .iter_mut()
                        .for_each(|t| t.grant(me, item, mode.other()));
                }
                8..=9 => tables.iter_mut().for_each(|t| t.release(me, item, mode)),
                _ => {
                    let released: Vec<Vec<HeldLock>> = tables
                        .iter_mut()
                        .map(|t| t.release_all(me).to_vec())
                        .collect();
                    assert!(released.windows(2).all(|w| w[0] == w[1]));
                }
            }
            check(&tables);
        }

        // Drain everything: the index must unwind back to empty.
        for &me in &who {
            tables.iter_mut().for_each(|t| {
                t.release_all(me);
            });
            check(&tables);
        }
        assert!(tables.iter().all(|t| t.locked_items() == 0));
    });
}
