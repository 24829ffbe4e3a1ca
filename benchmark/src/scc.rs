//! Strongly connected components of a serialization graph, counted from
//! outside the program.
//!
//! `SerializationGraph::find_cycle` answers "is there a cycle"; the
//! benchmark needs "how many committed instances sit on one", so that a
//! run with a few bad instances among hundreds of thousands still yields
//! a goodput and a fail ratio.

/// The instances inside non-trivial components (two or more nodes).
pub struct Cyclic {
    /// `member[v]` is true when node `v` lies on a cycle.
    pub member: Vec<bool>,
    /// Number of such nodes.
    pub txns: usize,
    /// Number of non-trivial components.
    pub components: usize,
}

/// Tarjan's algorithm, iterative, over nodes `0..n` and directed `edges`.
/// Self-loops do not make a component non-trivial (the serialization
/// graph has none by construction).
pub fn cyclic_nodes(n: usize, edges: &[(u32, u32)]) -> Cyclic {
    // Adjacency in compressed-row form.
    let mut start = vec![0u32; n + 1];
    for &(from, _) in edges {
        start[from as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut adj = vec![0u32; edges.len()];
    for &(from, to) in edges {
        adj[fill[from as usize] as usize] = to;
        fill[from as usize] += 1;
    }

    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // (node, next adjacency position to look at)
    let mut call: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut out = Cyclic {
        member: vec![false; n],
        txns: 0,
        components: 0,
    };

    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        call.push((root, start[root as usize]));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(frame) = call.last_mut() {
            let (v, pos) = *frame;
            let vi = v as usize;
            if pos < start[vi + 1] {
                frame.1 += 1;
                let w = adj[pos as usize];
                let wi = w as usize;
                if index[wi] == UNSEEN {
                    index[wi] = next_index;
                    low[wi] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[wi] = true;
                    call.push((w, start[wi]));
                } else if on_stack[wi] {
                    low[vi] = low[vi].min(index[wi]);
                }
                continue;
            }
            call.pop();
            if let Some(&(parent, _)) = call.last() {
                let pi = parent as usize;
                low[pi] = low[pi].min(low[vi]);
            }
            if low[vi] == index[vi] {
                let base = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("a root is on the stack");
                let size = stack.len() - base;
                for w in stack.drain(base..) {
                    on_stack[w as usize] = false;
                    if size > 1 {
                        out.member[w as usize] = true;
                    }
                }
                if size > 1 {
                    out.txns += size;
                    out.components += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_dag_has_no_cyclic_nodes() {
        let c = cyclic_nodes(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        assert_eq!((c.txns, c.components), (0, 0));
        assert!(c.member.iter().all(|&m| !m));
    }

    #[test]
    fn a_two_cycle_counts_both_ends_only() {
        let c = cyclic_nodes(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        assert_eq!((c.txns, c.components), (2, 1));
        assert_eq!(c.member, vec![false, true, true, false]);
    }

    #[test]
    fn two_disjoint_three_cycles() {
        let edges = [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (2, 3),
            (6, 0),
        ];
        let c = cyclic_nodes(7, &edges);
        assert_eq!((c.txns, c.components), (6, 2));
        assert_eq!(c.member, vec![true, true, true, true, true, true, false]);
    }

    #[test]
    fn self_loops_and_empty_graphs_are_trivial() {
        let c = cyclic_nodes(2, &[(0, 0), (0, 1)]);
        assert_eq!((c.txns, c.components), (0, 0));
        let c = cyclic_nodes(0, &[]);
        assert_eq!((c.txns, c.components), (0, 0));
    }

    #[test]
    fn a_long_chain_does_not_overflow_the_stack() {
        let n = 300_000u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        edges.push((n - 1, 0));
        let c = cyclic_nodes(n as usize, &edges);
        assert_eq!((c.txns, c.components), (n as usize, 1));
    }
}
