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
//!
//! The graph is built from the history's [`CommittedIndex`] and kept
//! flat: sorted `Vec`s of nodes and edges, and per node a slice of its
//! successors, which is what [`find_cycle`] walks. Edges are sorted by a
//! counting sort on their source and a sort of each source's handful, so
//! they come out in the `(from, to, kind, item)` order the tree sets
//! gave; `crates/storage/tests/differential.rs` holds the tree-map
//! oracle as a reference model and checks the answers are identical.

use crate::db::Version;
use crate::history::{group, CommittedIndex, History, Positions};
use rtdb_types::{InstanceId, ItemId};

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
/// (`rtdb_core::StateKernel::resolve_cycles`, through
/// [`CycleScratch::find_cycle`]) both call it.
pub fn find_cycle<'g>(
    nodes: impl IntoIterator<Item = InstanceId>,
    succs: impl Fn(InstanceId) -> &'g [InstanceId],
) -> Option<Vec<InstanceId>> {
    CycleScratch::default().find_cycle(nodes, succs)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Color {
    White,
    Grey,
    Black,
}

/// The buffers of a [`find_cycle`] search, for a caller that searches
/// often: one kept across searches lends them its capacity, so a search
/// allocates only the cycle it returns.
#[derive(Debug, Default)]
pub struct CycleScratch {
    /// Each start node with its colour, ascending.
    color: Vec<(InstanceId, Color)>,
    /// The grey path, each node (as its index in `color`) with the
    /// position of its next successor to try.
    path: Vec<(usize, usize)>,
}

impl CycleScratch {
    /// [`find_cycle`] on these buffers.
    pub fn find_cycle<'g>(
        &mut self,
        nodes: impl IntoIterator<Item = InstanceId>,
        succs: impl Fn(InstanceId) -> &'g [InstanceId],
    ) -> Option<Vec<InstanceId>> {
        let CycleScratch { color, path } = self;
        color.clear();
        path.clear();
        color.extend(nodes.into_iter().map(|n| (n, Color::White)));
        debug_assert!(color.windows(2).all(|w| w[0].0 < w[1].0), "nodes ascending");
        let index = |color: &[(InstanceId, Color)], n| color.binary_search_by_key(&n, |c| c.0).ok();

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
                let Some(to) = index(color, to) else {
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
}

/// The serialization graph of a history.
///
/// Flat: the nodes and the edges are sorted `Vec`s, and each node's
/// successors one slice of a third, in edge order with repeats dropped (a
/// second edge to the same node changes neither search below).
#[derive(Clone, Debug)]
pub struct SerializationGraph {
    /// Committed instances, ascending.
    nodes: Vec<InstanceId>,
    /// Finds a node in `nodes`.
    positions: Positions,
    /// Ascending by `(from, to, kind, item)`, no repeats.
    edges: Vec<ConflictEdge>,
    /// `succs[succ_start[i]..succ_start[i + 1]]` are `nodes[i]`'s
    /// successors, ascending.
    succ_start: Vec<usize>,
    succs: Vec<InstanceId>,
}

impl SerializationGraph {
    /// Build `SG(H)` from a history. Only committed instances appear.
    pub fn build(history: &History) -> Self {
        Self::from_index(&history.committed_index())
    }

    /// Build `SG(H)` from the history's committed index, so a caller that
    /// replays the history too indexes it once.
    pub fn from_index(index: &CommittedIndex) -> Self {
        // Edges in generation order, each tagged with a bucket that sorts
        // like its source: `2i + 1` for an edge leaving `nodes[i]`, `2i`
        // for one leaving a non-node that sorts just before `nodes[i]` (an
        // instance that installed early and never committed).
        let mut tagged: Vec<(usize, ConflictEdge)> = Vec::new();
        let mut push = |edge: ConflictEdge| {
            let bucket = match index.position(edge.from) {
                Ok(i) => 2 * i + 1,
                Err(i) => 2 * i,
            };
            tagged.push((bucket, edge));
        };

        // ww edges: successive committed writers of the same item.
        for (item, chain) in index.install_chains() {
            for pair in chain.windows(2) {
                let (_, w1) = pair[0];
                let (_, w2) = pair[1];
                if w1 != w2 {
                    push(ConflictEdge {
                        from: w1,
                        to: w2,
                        kind: EdgeKind::Ww,
                        item,
                    });
                }
            }
        }

        // wr and rw edges from committed reads. Reads served from the
        // instance's own workspace are internal and create no edges.
        for &reader in index.committed() {
            for read in index.reads(reader) {
                if read.own {
                    continue;
                }
                let item = read.item;
                let chain = index.installs(item);
                // The writer of the version read, and the one who overwrote
                // it. Readers of the version before the first install
                // (version 0, unless the chain starts higher) precede the
                // first writer.
                let (writer, overwriter) = match find_version(chain, read.version) {
                    Some(at) => (Some(chain[at].1), chain.get(at + 1).map(|&(_, w)| w)),
                    None => {
                        let first = chain
                            .first()
                            .filter(|&&(v, _)| v.checked_sub(1) == Some(read.version));
                        (None, first.map(|&(_, w)| w))
                    }
                };
                if let Some(writer) = writer.filter(|&w| w != reader) {
                    push(ConflictEdge {
                        from: writer,
                        to: reader,
                        kind: EdgeKind::Wr,
                        item,
                    });
                }
                if let Some(overwriter) = overwriter.filter(|&w| w != reader) {
                    push(ConflictEdge {
                        from: reader,
                        to: overwriter,
                        kind: EdgeKind::Rw,
                        item,
                    });
                }
            }
        }

        // A counting sort by bucket, then each bucket's handful sorted.
        let nodes = index.committed().to_vec();
        let (bucket_start, mut edges) = group(2 * nodes.len() + 1, tagged.iter().copied());
        for bucket in bucket_start.windows(2) {
            edges[bucket[0]..bucket[1]].sort_unstable();
        }
        edges.dedup();

        // Successor slices, walking the sorted edges beside the nodes. An
        // edge leaving a non-node is never searched from.
        let mut succ_start = Vec::with_capacity(nodes.len() + 1);
        let mut succs: Vec<InstanceId> = Vec::new();
        let mut rest = edges.iter().peekable();
        for &n in &nodes {
            let begin = succs.len();
            succ_start.push(begin);
            while rest.next_if(|e| e.from < n).is_some() {}
            while let Some(e) = rest.next_if(|e| e.from == n) {
                if succs[begin..].last() != Some(&e.to) {
                    succs.push(e.to);
                }
            }
        }
        succ_start.push(succs.len());

        SerializationGraph {
            nodes,
            positions: index.positions().clone(),
            edges,
            succ_start,
            succs,
        }
    }

    /// All nodes (committed instances), ascending.
    pub fn nodes(&self) -> &[InstanceId] {
        &self.nodes
    }

    /// All conflict edges, ascending by `(from, to, kind, item)`.
    pub fn edges(&self) -> impl Iterator<Item = &ConflictEdge> {
        self.edges.iter()
    }

    /// Where node `n` is in `nodes`.
    fn position(&self, n: InstanceId) -> Option<usize> {
        self.positions.find(&self.nodes, n).ok()
    }

    /// The distinct successors of node `nodes[i]`, ascending.
    fn succs_at(&self, i: usize) -> &[InstanceId] {
        &self.succs[self.succ_start[i]..self.succ_start[i + 1]]
    }

    /// Find a cycle, if one exists, as the list of instances on it.
    /// `None` means the history is conflict-serializable.
    pub fn find_cycle(&self) -> Option<Vec<InstanceId>> {
        find_cycle(self.nodes.iter().copied(), |n| {
            self.position(n).map_or(&[], |i| self.succs_at(i))
        })
    }

    /// A topological order of the graph (a valid serialization order), or
    /// `None` if cyclic. Of the nodes ready at a time, the highest comes
    /// first.
    pub fn topological_order(&self) -> Option<Vec<InstanceId>> {
        let at = |&n: &InstanceId| self.position(n);
        let mut indegree = vec![0usize; self.nodes.len()];
        for to in self.succs.iter().filter_map(at) {
            indegree[to] += 1;
        }
        let mut ready: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut out = Vec::with_capacity(self.nodes.len());
        while let Some(i) = ready.pop() {
            out.push(self.nodes[i]);
            for to in self.succs_at(i).iter().filter_map(at) {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    ready.push(to);
                }
            }
        }
        (out.len() == self.nodes.len()).then_some(out)
    }
}

/// Where `version` sits in an item's install chain. Versions rise by one
/// per install, so the chain's first version locates it directly; a chain
/// with gaps falls back to a binary search.
fn find_version(chain: &[(Version, InstanceId)], version: Version) -> Option<usize> {
    let first = chain.first()?.0;
    let guess = version.checked_sub(first).map(|d| d as usize);
    match guess.and_then(|at| chain.get(at)) {
        Some(&(v, _)) if v == version => guess,
        _ => chain.binary_search_by_key(&version, |&(v, _)| v).ok(),
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
        // Adjacency lists, sorted by node.
        let mut adj: Vec<(InstanceId, Vec<InstanceId>)> = [(0, 3), (1, 2), (2, 1), (3, 4), (4, 3)]
            .into_iter()
            .map(|(from, to)| (inst(from), vec![inst(to)]))
            .collect();
        fn succs(adj: &[(InstanceId, Vec<InstanceId>)], n: InstanceId) -> &[InstanceId] {
            adj.binary_search_by_key(&n, |a| a.0)
                .map_or(&[], |i| adj[i].1.as_slice())
        }
        let search = |adj: &[(InstanceId, Vec<InstanceId>)]| {
            find_cycle(adj.iter().map(|a| a.0), |n| succs(adj, n))
        };
        assert_eq!(search(&adj), Some(vec![inst(3), inst(4)]));
        adj.remove(0);
        assert_eq!(search(&adj), Some(vec![inst(1), inst(2)]));
        // A successor outside `nodes` is never searched from.
        let only_1 = find_cycle([inst(1)], |n| succs(&adj, n));
        assert_eq!(only_1, None);
    }
}
