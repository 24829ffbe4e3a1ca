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
        let mut pm = PriorityManager::new();
        for (i, &b) in bases.iter().enumerate() {
            pm.register(inst(i as u32), Priority(b + (i as u32) * 100)); // distinct
        }
        // Apply edges (skip self-edges and out-of-range, one blocker per
        // blocked instance — last wins, like the engine).
        let mut applied: std::collections::BTreeMap<usize, usize> = Default::default();
        for &(blocked, blocker) in &edges {
            if blocked < n && blocker < n && blocked != blocker {
                // Avoid trivial cycles for this test: only allow edges
                // from a higher-index node to a lower one.
                if blocked > blocker {
                    pm.set_blocked(inst(blocked as u32), &[inst(blocker as u32)]);
                    applied.insert(blocked, blocker);
                }
            }
        }
        // running >= base everywhere.
        for i in 0..n {
            assert!(pm.running(inst(i as u32)) >= pm.base(inst(i as u32)));
        }
        // Fixpoint equation.
        for i in 0..n {
            let me = inst(i as u32);
            let inherited = applied
                .iter()
                .filter(|&(_, &blocker)| blocker == i)
                .map(|(&blocked, _)| pm.running(inst(blocked as u32)))
                .max();
            let expected = match inherited {
                Some(p) => std::cmp::max(pm.base(me), p),
                None => pm.base(me),
            };
            assert_eq!(pm.running(me), expected);
        }
        // Clearing all edges restores bases.
        for &blocked in applied.keys() {
            pm.clear_blocked(inst(blocked as u32));
        }
        for i in 0..n {
            assert_eq!(pm.running(inst(i as u32)), pm.base(inst(i as u32)));
        }
    });
}

/// Wait-for graphs: a graph whose edges all point from higher indices
/// to strictly lower ones is acyclic; adding a back edge on any path
/// creates a detectable cycle.
#[test]
fn waitfor_cycle_detection() {
    forall(CASES, |rng| {
        let edges = vec_of(rng, 1..15, |rng| {
            (rng.range_usize(1..10), rng.range_usize(0..10))
        });
        let mut g = WaitForGraph::default();
        let mut down_edges = vec![];
        for &(a, b) in &edges {
            if b < a {
                g.add_edge(inst(a as u32), inst(b as u32));
                down_edges.push((a, b));
            }
        }
        assert!(g.is_deadlock_free());

        if let Some(&(a, b)) = down_edges.first() {
            // Close the loop: b -> a.
            g.add_edge(inst(b as u32), inst(a as u32));
            let cycle = g.find_cycle();
            assert!(cycle.is_some());
            let cycle = cycle.unwrap();
            assert!(cycle.len() >= 2);
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
/// of the plain table, for all three protocol flavors, after every single
/// transition.
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
