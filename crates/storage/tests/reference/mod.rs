//! The oracles as they were before they read [`CommittedIndex`]: the
//! tree-map history views, `SG(H)` over two `BTreeSet`s and the serial
//! replay over the tree-map reads, kept verbatim (methods of `History`
//! became free functions) as the reference model the flat oracles are
//! checked against in `differential.rs`.
//!
//! [`CommittedIndex`]: rtdb_storage::CommittedIndex

use rtdb_storage::{
    find_cycle, ConflictEdge, Database, EdgeKind, EventKind, History, ReplayOutcome,
    ReplayViolation, Version, Workspace,
};
use rtdb_types::{InstanceId, ItemId, Operation, TransactionSet, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The reads of each committed instance's *final* (committing) attempt,
/// in program order: events after the last `Begin` of that instance.
pub fn committed_reads(
    history: &History,
) -> BTreeMap<InstanceId, Vec<(ItemId, Value, Version, bool)>> {
    let mut last_begin: BTreeMap<InstanceId, usize> = BTreeMap::new();
    for (i, e) in history.events().iter().enumerate() {
        if matches!(e.kind, EventKind::Begin) {
            last_begin.insert(e.instance, i);
        }
    }
    let mut out: BTreeMap<InstanceId, Vec<(ItemId, Value, Version, bool)>> = BTreeMap::new();
    for &who in history.commit_order() {
        out.insert(who, Vec::new());
    }
    for (i, e) in history.events().iter().enumerate() {
        if let EventKind::Read {
            item,
            value,
            version,
            own,
        } = e.kind
        {
            if let Some(reads) = out.get_mut(&e.instance) {
                if i >= *last_begin.get(&e.instance).unwrap_or(&0) {
                    reads.push((item, value, version, own));
                }
            }
        }
    }
    out
}

/// Per-item install sequence `(version, writer, value)`, ascending by
/// version — the ww order of the history.
pub fn install_order(history: &History) -> BTreeMap<ItemId, Vec<(Version, InstanceId, Value)>> {
    let mut out: BTreeMap<ItemId, Vec<(Version, InstanceId, Value)>> = BTreeMap::new();
    for e in history.events() {
        if let EventKind::Install {
            item,
            value,
            version,
        } = e.kind
        {
            out.entry(item)
                .or_default()
                .push((version, e.instance, value));
        }
    }
    // Keep versions sorted (they are logged in commit order, which is
    // already ascending per item, but be defensive).
    for seq in out.values_mut() {
        seq.sort_by_key(|(v, _, _)| *v);
    }
    out
}

/// The serialization graph of a history.
#[derive(Clone, Debug)]
pub struct SerializationGraph {
    nodes: BTreeSet<InstanceId>,
    edges: BTreeSet<ConflictEdge>,
}

impl SerializationGraph {
    /// Build `SG(H)` from a history. Only committed instances appear.
    pub fn build(history: &History) -> Self {
        let committed: BTreeSet<InstanceId> = history.commit_order().iter().copied().collect();
        let installs = install_order(history);
        let reads = committed_reads(history);

        let mut edges: BTreeSet<ConflictEdge> = BTreeSet::new();

        // ww edges: successive committed writers of the same item.
        for (item, seq) in &installs {
            for pair in seq.windows(2) {
                let (_, w1, _) = pair[0];
                let (_, w2, _) = pair[1];
                if w1 != w2 {
                    edges.insert(ConflictEdge {
                        from: w1,
                        to: w2,
                        kind: EdgeKind::Ww,
                        item: *item,
                    });
                }
            }
        }

        // Index: per item, version -> writer; and version -> next writer.
        let mut installer: BTreeMap<(ItemId, u64), InstanceId> = BTreeMap::new();
        let mut next_writer: BTreeMap<(ItemId, u64), InstanceId> = BTreeMap::new();
        for (item, seq) in &installs {
            for (version, writer, _) in seq {
                installer.insert((*item, *version), *writer);
            }
            for pair in seq.windows(2) {
                let (v1, _, _) = pair[0];
                let (_, w2, _) = pair[1];
                next_writer.insert((*item, v1), w2);
            }
            if let Some((first_version, first_writer, _)) = seq.first() {
                // Readers of the initial version 0 precede the first writer.
                if *first_version >= 1 {
                    next_writer.insert((*item, first_version - 1), *first_writer);
                }
            }
        }

        // wr and rw edges from committed reads. Reads served from the
        // instance's own workspace are internal and create no edges.
        for (&reader, rs) in &reads {
            for &(item, _value, version, own) in rs {
                if own {
                    continue;
                }
                if let Some(&writer) = installer.get(&(item, version)) {
                    if writer != reader {
                        edges.insert(ConflictEdge {
                            from: writer,
                            to: reader,
                            kind: EdgeKind::Wr,
                            item,
                        });
                    }
                }
                if let Some(&overwriter) = next_writer.get(&(item, version)) {
                    if overwriter != reader {
                        edges.insert(ConflictEdge {
                            from: reader,
                            to: overwriter,
                            kind: EdgeKind::Rw,
                            item,
                        });
                    }
                }
            }
        }

        SerializationGraph {
            nodes: committed,
            edges,
        }
    }

    /// All nodes (committed instances).
    pub fn nodes(&self) -> &BTreeSet<InstanceId> {
        &self.nodes
    }

    /// All conflict edges.
    pub fn edges(&self) -> impl Iterator<Item = &ConflictEdge> {
        self.edges.iter()
    }

    /// Find a cycle, if one exists, as the list of instances on it.
    /// `None` means the history is conflict-serializable.
    pub fn find_cycle(&self) -> Option<Vec<InstanceId>> {
        let mut adj: BTreeMap<InstanceId, Vec<InstanceId>> = BTreeMap::new();
        for e in &self.edges {
            adj.entry(e.from).or_default().push(e.to);
        }
        find_cycle(self.nodes.iter().copied(), |n| {
            adj.get(&n).map_or(&[], Vec::as_slice)
        })
    }

    /// A topological order of the graph (a valid serialization order), or
    /// `None` if cyclic.
    pub fn topological_order(&self) -> Option<Vec<InstanceId>> {
        let mut indegree: BTreeMap<InstanceId, usize> =
            self.nodes.iter().map(|&n| (n, 0)).collect();
        let mut adj: BTreeMap<InstanceId, Vec<InstanceId>> = BTreeMap::new();
        for e in &self.edges {
            adj.entry(e.from).or_default().push(e.to);
            *indegree.entry(e.to).or_insert(0) += 1;
        }
        let mut ready: Vec<InstanceId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::with_capacity(self.nodes.len());
        while let Some(n) = ready.pop() {
            out.push(n);
            for &m in adj.get(&n).map(|v| v.as_slice()).unwrap_or(&[]) {
                let d = indegree.get_mut(&m).unwrap();
                *d -= 1;
                if *d == 0 {
                    ready.push(m);
                }
            }
        }
        (out.len() == self.nodes.len()).then_some(out)
    }
}

/// Replay `history` serially in commit order against the programs in `set`
/// and compare with the concurrent observations and `final_db`.
pub fn replay_serial(
    set: &TransactionSet,
    history: &History,
    final_db: &Database,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let mut db = Database::new();
    let committed_reads = committed_reads(history);

    for &who in history.commit_order() {
        let template = set.template(who.txn);
        let mut ws = Workspace::new(who);
        let mut serial_reads: Vec<(ItemId, Value)> = Vec::new();
        for (step_index, step) in template.steps.iter().enumerate() {
            match step.op {
                Operation::Read(item) => {
                    let rec = ws.read(&db, item);
                    serial_reads.push((item, rec.value));
                }
                Operation::Write(item) => {
                    ws.write(step_index, item);
                }
                Operation::Compute => {}
            }
        }
        // Compare against the concurrent history's reads for this instance.
        let observed = committed_reads
            .get(&who)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        if observed.len() != serial_reads.len() {
            out.violations.push(ReplayViolation::ReadCountMismatch {
                instance: who,
                observed: observed.len(),
                expected: serial_reads.len(),
            });
        }
        for (i, ((s_item, s_value), &(o_item, o_value, _, _))) in
            serial_reads.iter().zip(observed.iter()).enumerate()
        {
            debug_assert_eq!(*s_item, o_item, "programs are deterministic");
            if *s_value != o_value {
                out.violations.push(ReplayViolation::ReadMismatch {
                    instance: who,
                    read_index: i,
                    item: *s_item,
                    observed: o_value,
                    serial: *s_value,
                });
            }
        }
        // Install this instance's writes before the next one replays.
        ws.commit_into(&mut db, rtdb_types::Tick::ZERO);
    }

    // Final-state comparison.
    let serial_snapshot = db.snapshot();
    let observed_snapshot = final_db.snapshot();
    let items: std::collections::BTreeSet<ItemId> = serial_snapshot
        .keys()
        .chain(observed_snapshot.keys())
        .copied()
        .collect();
    for item in items {
        let s = serial_snapshot.get(&item).copied();
        let o = observed_snapshot.get(&item).copied();
        if s != o {
            out.violations.push(ReplayViolation::FinalStateMismatch {
                item,
                observed: o,
                serial: s,
            });
        }
    }
    out
}
