//! The serialization graph `SG(H)` and cycle detection (Theorem 3 oracle).
//!
//! Nodes are committed instances; edges are the conflicts of the history
//! under the update-in-workspace semantics:
//!
//! * **ww** — per-item install (version) order between committed writers;
//! * **wr** — a committed reader observed the version some writer
//!   installed: `writer → reader`;
//! * **rw** — a committed reader observed version `k` of an item that a
//!   later writer overwrote (installed version `k+1`): `reader → writer`
//!   (the reader logically precedes the overwriting writer).
//!
//! The paper argues (§4.1) that under deferred updates two writes are
//! non-conflicting *for ordering-constraint purposes* — their order is
//! simply the commit order. We still record ww edges (they follow install
//! order, hence commit order, and therefore can never create a cycle on
//! their own) so the graph is the classical `SG(H)` of Bernstein et al.,
//! which Theorem 3 references.

use crate::history::History;
use rtdb_types::{InstanceId, ItemId};
use std::collections::{BTreeMap, BTreeSet};

/// Kind of a conflict edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// write → write (install order).
    Ww,
    /// writer → reader (reads-from).
    Wr,
    /// reader → later writer (anti-dependency).
    Rw,
}

/// A directed conflict edge of `SG(H)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ConflictEdge {
    /// Source instance.
    pub from: InstanceId,
    /// Target instance.
    pub to: InstanceId,
    /// Conflict kind.
    pub kind: EdgeKind,
    /// Item on which the conflict arises.
    pub item: ItemId,
}

/// The first cycle a depth-first search meets, as the instances on it in
/// edge order (`a → b → … → a`); `None` when there is no cycle.
///
/// `nodes` are the start points, ascending; `succs(n)` are `n`'s
/// out-edges. Starts are tried in ascending order and successors in the
/// order `succs` lists them, so which cycle is found depends on nothing
/// but the graph and that order. A successor outside `nodes` counts as finished and is
/// never searched from: leave out only nodes without out-edges, or nodes
/// the search should ignore.
///
/// This is the one cycle search in the workspace: Theorem 3's oracle
/// ([`SerializationGraph::find_cycle`]) and Theorem 2's deadlock check
/// (`rtdb_core::StateKernel::find_deadlock`) both call it.
pub fn find_cycle<'g>(
    nodes: impl IntoIterator<Item = InstanceId>,
    succs: impl Fn(InstanceId) -> &'g [InstanceId],
) -> Option<Vec<InstanceId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: Vec<(InstanceId, Color)> =
        nodes.into_iter().map(|n| (n, Color::White)).collect();
    debug_assert!(color.windows(2).all(|w| w[0].0 < w[1].0), "nodes ascending");
    let index = |color: &[(InstanceId, Color)], n| color.binary_search_by_key(&n, |c| c.0).ok();

    // Iterative DFS: the grey path, each node (as its index in `color`)
    // with the position of its next successor to try.
    let mut path: Vec<(usize, usize)> = Vec::new();
    for start in 0..color.len() {
        if color[start].1 != Color::White {
            continue;
        }
        color[start].1 = Color::Grey;
        path.push((start, 0));
        while let Some((node, next)) = path.last_mut() {
            let node = *node;
            let Some(&to) = succs(color[node].0).get(*next) else {
                color[node].1 = Color::Black;
                path.pop();
                continue;
            };
            *next += 1;
            let Some(to) = index(&color, to) else {
                continue;
            };
            match color[to].1 {
                Color::White => {
                    color[to].1 = Color::Grey;
                    path.push((to, 0));
                }
                Color::Grey => {
                    // The cycle is the path from `to`'s place on it.
                    let pos = path
                        .iter()
                        .position(|&(n, _)| n == to)
                        .expect("a grey node is on the path");
                    return Some(path[pos..].iter().map(|&(n, _)| color[n].0).collect());
                }
                Color::Black => {}
            }
        }
    }
    None
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
        let installs = history.install_order();
        let reads = history.committed_reads();

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{EventKind, History};
    use rtdb_types::{Tick, TxnId, Value};

    fn inst(t: u32) -> InstanceId {
        InstanceId::first(TxnId(t))
    }

    fn read(h: &mut History, at: u64, who: InstanceId, item: ItemId, version: u64) {
        h.push(
            Tick(at),
            who,
            EventKind::Read {
                item,
                value: Value(version),
                version,
                own: false,
            },
        );
    }

    fn commit_write(h: &mut History, at: u64, who: InstanceId, item: ItemId, version: u64) {
        h.push(Tick(at), who, EventKind::Commit);
        h.push(
            Tick(at),
            who,
            EventKind::Install {
                item,
                value: Value(version * 100),
                version,
            },
        );
    }

    #[test]
    fn serial_history_is_acyclic() {
        let mut h = History::new();
        let (a, b) = (inst(0), inst(1));
        h.push(Tick(0), a, EventKind::Begin);
        read(&mut h, 1, a, ItemId(0), 0);
        commit_write(&mut h, 2, a, ItemId(0), 1);
        h.push(Tick(3), b, EventKind::Begin);
        read(&mut h, 4, b, ItemId(0), 1);
        commit_write(&mut h, 5, b, ItemId(0), 2);

        let g = SerializationGraph::build(&h);
        assert!(g.find_cycle().is_none());
        let topo = g.topological_order().unwrap();
        assert_eq!(topo, vec![a, b]); // a must precede b (wr + ww + rw)
    }

    #[test]
    fn rw_wr_cycle_is_detected() {
        // Classic non-serializable interleaving:
        //   a reads x(v0); b reads y(v0); a commits write y(v1);
        //   b commits write x(v1).
        // Edges: a -rw-> b (a read x v0, b installed x v1)
        //        b -rw-> a (b read y v0, a installed y v1)
        let mut h = History::new();
        let (a, b) = (inst(0), inst(1));
        h.push(Tick(0), a, EventKind::Begin);
        h.push(Tick(0), b, EventKind::Begin);
        read(&mut h, 1, a, ItemId(0), 0);
        read(&mut h, 1, b, ItemId(1), 0);
        commit_write(&mut h, 2, a, ItemId(1), 1);
        commit_write(&mut h, 3, b, ItemId(0), 1);

        let g = SerializationGraph::build(&h);
        let cycle = g.find_cycle().expect("cycle must be found");
        assert!(cycle.contains(&a) && cycle.contains(&b));
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn own_reads_create_no_edges() {
        let mut h = History::new();
        let a = inst(0);
        h.push(Tick(0), a, EventKind::Begin);
        h.push(
            Tick(1),
            a,
            EventKind::Read {
                item: ItemId(0),
                value: Value(5),
                version: 0,
                own: true,
            },
        );
        commit_write(&mut h, 2, a, ItemId(0), 1);
        let g = SerializationGraph::build(&h);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn reader_of_initial_version_precedes_first_writer() {
        let mut h = History::new();
        let (a, b) = (inst(0), inst(1));
        h.push(Tick(0), a, EventKind::Begin);
        read(&mut h, 1, a, ItemId(0), 0);
        h.push(Tick(2), a, EventKind::Commit); // reader commits, no writes
        h.push(Tick(3), b, EventKind::Begin);
        commit_write(&mut h, 4, b, ItemId(0), 1);

        let g = SerializationGraph::build(&h);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, EdgeKind::Rw);
        assert_eq!(edges[0].from, a);
        assert_eq!(edges[0].to, b);
    }

    #[test]
    fn ww_edges_follow_install_order() {
        let mut h = History::new();
        let (a, b) = (inst(0), inst(1));
        h.push(Tick(0), a, EventKind::Begin);
        h.push(Tick(0), b, EventKind::Begin);
        commit_write(&mut h, 1, b, ItemId(0), 1);
        commit_write(&mut h, 2, a, ItemId(0), 2);
        let g = SerializationGraph::build(&h);
        let ww: Vec<_> = g.edges().filter(|e| e.kind == EdgeKind::Ww).collect();
        assert_eq!(ww.len(), 1);
        assert_eq!((ww[0].from, ww[0].to), (b, a));
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn find_cycle_returns_the_cycle_reached_from_the_lowest_start() {
        // Two disjoint cycles, {1, 2} and {3, 4}; node 0 leads into the
        // second. Starts are tried in ascending order, so 0's cycle wins
        // although {1, 2} holds the lower ids.
        let mut adj: BTreeMap<InstanceId, Vec<InstanceId>> = BTreeMap::new();
        for (from, to) in [(1, 2), (2, 1), (3, 4), (4, 3), (0, 3)] {
            adj.entry(inst(from)).or_default().push(inst(to));
        }
        let search = |adj: &BTreeMap<InstanceId, Vec<InstanceId>>| {
            find_cycle(adj.keys().copied(), |n| {
                adj.get(&n).map_or(&[], Vec::as_slice)
            })
        };
        assert_eq!(search(&adj), Some(vec![inst(3), inst(4)]));
        adj.remove(&inst(0));
        assert_eq!(search(&adj), Some(vec![inst(1), inst(2)]));
        // A successor outside `nodes` is never searched from.
        let only_1 = find_cycle([inst(1)], |n| adj.get(&n).map_or(&[], Vec::as_slice));
        assert_eq!(only_1, None);
    }
}
