//! Differential tests: the flat oracles ([`CommittedIndex`],
//! [`SerializationGraph`], [`replay_in_order`]) against the tree-map
//! reference model they replaced (`reference/mod.rs`). Both must give the
//! same nodes, the same edges in the same order, the same first cycle, a
//! valid topological order (the reference's, where it has one) and the
//! same replay violations, on random histories and on simulator runs of
//! every protocol.

mod reference;

use rtdb_core::ProtocolKind;
use rtdb_sim::{instantiate, Engine, SimConfig, WorkloadParams};
use rtdb_storage::*;
use rtdb_types::*;
use rtdb_util::prop::{forall, vec_of, BASE_SEED, CASES};
use rtdb_util::Rng;

/// Every oracle answer of the flat implementation equals the reference
/// model's on `history`.
fn assert_same_answers(set: &TransactionSet, history: &History, db: &Database, rng: &mut Rng) {
    // The index against the tree-map views it replaced.
    let index = history.committed_index();
    let reads = reference::committed_reads(history);
    let committed: Vec<InstanceId> = reads.keys().copied().collect();
    assert_eq!(index.committed(), committed.as_slice());
    for (&who, want) in &reads {
        let got: Vec<_> = index
            .reads(who)
            .iter()
            .map(|r| (r.item, r.value, r.version, r.own))
            .collect();
        assert_eq!(&got, want, "final-attempt reads of {who:?}");
    }
    let installs = reference::install_order(history);
    let chains: Vec<(ItemId, Vec<(Version, InstanceId)>)> = index
        .install_chains()
        .map(|(x, c)| (x, c.to_vec()))
        .collect();
    let want: Vec<(ItemId, Vec<(Version, InstanceId)>)> = installs
        .iter()
        .map(|(&x, c)| (x, c.iter().map(|&(v, w, _)| (v, w)).collect()))
        .collect();
    assert_eq!(chains, want, "install chains");

    // SG(H).
    let graph = SerializationGraph::build(history);
    let old = reference::SerializationGraph::build(history);
    let old_nodes: Vec<InstanceId> = old.nodes().iter().copied().collect();
    assert_eq!(graph.nodes(), old_nodes.as_slice());
    let edges: Vec<ConflictEdge> = graph.edges().copied().collect();
    let old_edges: Vec<ConflictEdge> = old.edges().copied().collect();
    assert_eq!(edges, old_edges);
    let cycle = graph.find_cycle();
    assert_eq!(cycle, old.find_cycle());
    // An order exactly when there is no cycle, and it orders every edge
    // between nodes. Where the reference has one it is the same; it has
    // none when an edge leaves an instance that never committed (an early
    // install), because it counted that edge into its target's in-degree.
    let topo = graph.topological_order();
    assert_eq!(topo.is_some(), cycle.is_none());
    if let Some(order) = &topo {
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted.as_slice(),
            graph.nodes(),
            "a permutation of the nodes"
        );
        let place = |n: &InstanceId| order.iter().position(|m| m == n);
        for e in &edges {
            if let (Some(from), Some(to)) = (place(&e.from), place(&e.to)) {
                assert!(from < to, "{e:?} points backwards");
            }
        }
        if let Some(old_order) = old.topological_order() {
            assert_eq!(order, &old_order);
        }
    }

    // The replay in commit order, and in a random order against the old
    // way of replaying one (a rebuilt history with its commits moved).
    let replay = replay_serial(set, history, db);
    assert_eq!(
        replay.violations,
        reference::replay_serial(set, history, db).violations
    );
    let mut order = committed;
    rng.shuffle(&mut order);
    let moved = replay_in_order(set, &index, &order, db);
    let mut rebuilt = History::new();
    for e in history.events() {
        if !matches!(e.kind, EventKind::Commit) {
            rebuilt.push(e.at, e.instance, e.kind);
        }
    }
    for &who in &order {
        rebuilt.push(Tick::ZERO, who, EventKind::Commit);
    }
    assert_eq!(
        moved.violations,
        reference::replay_serial(set, &rebuilt, db).violations
    );
}

/// A random set: 1–5 templates of 1–5 reads and writes over items 0–5.
fn arb_set(rng: &mut Rng) -> TransactionSet {
    let mut b = SetBuilder::new();
    for (i, prog) in vec_of(rng, 1..6, |rng| {
        vec_of(rng, 1..6, |rng| (rng.bool(), rng.range_u32(0..6)))
    })
    .into_iter()
    .enumerate()
    {
        let steps: Vec<Step> = prog
            .iter()
            .map(|&(w, x)| {
                if w {
                    Step::write(ItemId(x), 1)
                } else {
                    Step::read(ItemId(x), 1)
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

/// One attempt of an instance in flight: its workspace and next step.
struct Attempt {
    who: InstanceId,
    ws: Workspace,
    next: usize,
}

/// Run 1–3 instances of every template with no concurrency control at
/// all: a random interleaving of single steps against one store, so the
/// history is as often cyclic as not. It has restarts (a `Begin` again,
/// after an `Abort` or without one), attempts that read and then abort,
/// own-workspace reads, instances that read and never commit, early
/// installs (some by instances that never commit, so edges leave
/// non-nodes), and items installed before the log starts, so their first
/// logged install is above version 1.
fn arb_history(set: &TransactionSet, rng: &mut Rng) -> (History, Database) {
    let mut db = Database::new();
    let ghost = InstanceId::new(TxnId(99), 0);
    for x in 0..6 {
        for _ in 0..rng.range_u32(0..3) {
            db.install(ghost, ItemId(x), Value(u64::from(x) + 7), Tick::ZERO);
        }
    }
    let mut h = History::new();
    let mut waiting: Vec<InstanceId> = set
        .templates()
        .iter()
        .flat_map(|t| (0..rng.range_u32(1..4)).map(move |seq| InstanceId::new(t.id, seq)))
        .collect();
    let mut live: Vec<Attempt> = Vec::new();
    let mut at = 0;
    while !waiting.is_empty() || !live.is_empty() {
        at += 1;
        let now = Tick(at);
        if live.is_empty() || (!waiting.is_empty() && rng.range_u32(0..4) == 0) {
            let who = waiting.swap_remove(rng.range_usize(0..waiting.len()));
            h.push(now, who, EventKind::Begin);
            live.push(Attempt {
                who,
                ws: Workspace::new(who),
                next: 0,
            });
            continue;
        }
        let pick = rng.range_usize(0..live.len());
        let a = &mut live[pick];
        let steps = &set.template(a.who.txn).steps;
        if let Some(step) = steps.get(a.next) {
            match step.op {
                Operation::Read(item) => {
                    let r = a.ws.read(&db, item);
                    let read = EventKind::Read {
                        item,
                        value: r.value,
                        version: r.version,
                        own: r.own,
                    };
                    h.push(now, a.who, read);
                }
                Operation::Write(item) => {
                    let value = a.ws.write(a.next, item);
                    h.push(now, a.who, EventKind::StageWrite { item, value });
                    // An early install, as CCP's early release makes: the
                    // version is in the store before a commit that may
                    // never come.
                    if rng.range_u32(0..10) == 0 {
                        let version = db.install(a.who, item, value, now);
                        let install = EventKind::Install {
                            item,
                            value,
                            version,
                        };
                        h.push(now, a.who, install);
                    }
                }
                Operation::Compute => {}
            }
            a.next += 1;
            // A restart in the middle of the program.
            if rng.range_u32(0..12) == 0 {
                if rng.bool() {
                    h.push(now, a.who, EventKind::Abort);
                }
                h.push(now, a.who, EventKind::Begin);
                a.ws.reset(a.who);
                a.next = 0;
            }
            continue;
        }
        match rng.range_u32(0..8) {
            // Never commits, but keeps what it read in the log.
            0 => {
                live.swap_remove(pick);
            }
            // Aborts and restarts from the first step.
            1 => {
                h.push(now, a.who, EventKind::Abort);
                h.push(now, a.who, EventKind::Begin);
                a.ws.reset(a.who);
                a.next = 0;
            }
            _ => {
                let a = live.swap_remove(pick);
                h.push(now, a.who, EventKind::Commit);
                for (item, value, version) in a.ws.commit_into(&mut db, now) {
                    let install = EventKind::Install {
                        item,
                        value,
                        version,
                    };
                    h.push(now, a.who, install);
                }
            }
        }
    }
    (h, db)
}

#[test]
fn random_histories_get_the_reference_answers() {
    forall(CASES, |rng| {
        let set = arb_set(rng);
        let (history, db) = arb_history(&set, rng);
        assert_same_answers(&set, &history, &db, rng);
    });
}

/// The cases [`random_histories_get_the_reference_answers`] draws reach
/// what the oracles must agree on: cycles, replay violations, restarts
/// with reads, first installs above version 1, and edges that leave an
/// instance that never committed.
#[test]
fn random_histories_cover_the_hard_cases() {
    let (mut cyclic, mut violating, mut restarted, mut late_first, mut stray) = (0, 0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Rng::seed(BASE_SEED.wrapping_add(case as u64));
        let set = arb_set(&mut rng);
        let (history, db) = arb_history(&set, &mut rng);
        let index = history.committed_index();
        let graph = SerializationGraph::build(&history);
        cyclic += usize::from(graph.find_cycle().is_some());
        let committed = index.committed();
        stray += usize::from(
            graph
                .edges()
                .any(|e| committed.binary_search(&e.from).is_err()),
        );
        violating += usize::from(!replay_serial(&set, &history, &db).is_serializable());
        let reads: usize = history
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Read { .. }))
            .filter(|e| index.committed().contains(&e.instance))
            .count();
        let kept: usize = index
            .committed()
            .iter()
            .map(|&w| index.reads(w).len())
            .sum();
        restarted += usize::from(kept < reads);
        late_first += usize::from(index.install_chains().any(|(_, c)| c[0].0 > 1));
    }
    for (what, n) in [
        ("cyclic", cyclic),
        ("violating", violating),
        ("restarted after reading", restarted),
        ("first install above 1", late_first),
        ("an edge from a non-node", stray),
    ] {
        assert!(n >= CASES / 10, "{what}: {n} of {CASES}");
    }
}

fn params(rng: &mut Rng) -> WorkloadParams {
    WorkloadParams {
        templates: rng.range_inclusive_usize(2, 6),
        items: rng.range_inclusive_usize(4, 12),
        target_utilization: rng.range_inclusive_u64(2, 8) as f64 / 10.0,
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
        read_only_templates: rng.range_inclusive_usize(0, 2),
        hot_first: rng.bool(),
        seed: rng.next_u64(),
    }
}

#[test]
fn simulations_of_every_protocol_get_the_reference_answers() {
    for (i, kind) in ProtocolKind::ALL.into_iter().enumerate() {
        for s in 0..12u64 {
            let mut rng = Rng::seed(0x0D1F_F000 + 100 * i as u64 + s);
            let set = params(&mut rng).generate().expect("valid params").set;
            let config = SimConfig::with_horizon(1_500).resolving_deadlocks();
            let run = Engine::new(&set, config)
                .run(&mut instantiate(kind))
                .expect("run succeeds");
            assert_same_answers(&set, &run.history, &run.db, &mut rng);
        }
    }
}
