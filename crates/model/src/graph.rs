//! A small static digraph used for snapshots, footprints, and the
//! dynamic-network simulations.
//!
//! Deliberately minimal: adjacency lists and strong connectivity (via
//! Tarjan strongly-connected components) — everything the workspace
//! needs from a static graph, nothing more.

/// A directed graph on nodes `0..n` with adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digraph {
    adj: Vec<Vec<usize>>,
}

impl Digraph {
    /// Creates a graph with `n` nodes and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Digraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of directed edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Adds the directed edge `u → v` (parallel edges are collapsed).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
        }
    }

    /// Whether the edge `u → v` exists.
    #[cfg(test)]
    pub(crate) fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u).is_some_and(|row| row.contains(&v))
    }

    /// Whether every node is reachable from every other (strong
    /// connectivity). Vacuously true for the empty graph.
    #[must_use]
    pub fn is_strongly_connected(&self) -> bool {
        self.tarjan_scc().len() <= 1
    }

    /// Strongly connected components (Tarjan, iterative), in reverse
    /// topological order.
    fn tarjan_scc(&self) -> Vec<Vec<usize>> {
        let n = self.adj.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        // Explicit DFS stack: (node, next child position).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&(u, child)) = call.last() {
                if index[u] == usize::MAX {
                    index[u] = next_index;
                    low[u] = next_index;
                    next_index += 1;
                    stack.push(u);
                    on_stack[u] = true;
                }
                if let Some(&v) = self.adj[u].get(child) {
                    call.last_mut().expect("nonempty inside loop").1 += 1;
                    if index[v] == usize::MAX {
                        call.push((v, 0));
                    } else if on_stack[v] {
                        low[u] = low[u].min(index[v]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent] = low[parent].min(low[u]);
                    }
                    if low[u] == index[u] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("scc root is on stack");
                            on_stack[w] = false;
                            component.push(w);
                            if w == u {
                                break;
                            }
                        }
                        component.sort_unstable();
                        sccs.push(component);
                    }
                }
            }
        }
        sccs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Digraph {
        // 0 → 1 → 3, 0 → 2 → 3.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn edges_and_adjacency() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn scc_on_dag_is_singletons() {
        let sccs = diamond().tarjan_scc();
        assert_eq!(sccs.len(), 4);
        assert!(!diamond().is_strongly_connected());
    }

    #[test]
    fn scc_finds_cycles() {
        let mut g = Digraph::new(5);
        // Cycle 0→1→2→0, tail 2→3→4.
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        let mut sccs = g.tarjan_scc();
        sccs.sort();
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
        assert!(sccs.contains(&vec![4]));
    }

    #[test]
    fn full_cycle_is_strongly_connected() {
        let mut g = Digraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        assert!(g.is_strongly_connected());
        assert_eq!(g.tarjan_scc(), vec![vec![0, 1, 2]]);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn bad_edge_panics() {
        Digraph::new(1).add_edge(0, 1);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Digraph::new(0);
        assert_eq!(g.num_nodes(), 0);
        assert!(g.is_strongly_connected());
        assert!(g.tarjan_scc().is_empty());
    }
}
