//! Directed acyclic graphs over attribute indices.
//!
//! Used both for the *planted* ground-truth structure in synthetic data and
//! for representing discovered structure.

use std::collections::VecDeque;

/// A DAG over `n` nodes with adjacency lists. Edges are `parent → child`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    n: usize,
    children: Vec<Vec<usize>>,
    parents: Vec<Vec<usize>>,
}

impl Dag {
    /// Empty DAG over `n` nodes.
    pub fn new(n: usize) -> Self {
        Dag {
            n,
            children: vec![Vec::new(); n],
            parents: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add edge `from → to`. Panics if it would create a cycle or is out of
    /// bounds (planted graphs are built programmatically; a cycle is a bug).
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.n && to < self.n, "edge out of bounds");
        assert!(from != to, "self loop");
        assert!(
            !self.is_ancestor(to, from),
            "edge {from}→{to} would create a cycle"
        );
        if !self.children[from].contains(&to) {
            self.children[from].push(to);
            self.parents[to].push(from);
        }
    }

    /// Direct children.
    pub fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }

    /// Direct parents.
    pub fn parents(&self, node: usize) -> &[usize] {
        &self.parents[node]
    }

    /// Is `a` an ancestor of `b` (a ⇝ b)?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::from([a]);
        seen[a] = true;
        while let Some(u) = queue.pop_front() {
            for &c in &self.children[u] {
                if c == b {
                    return true;
                }
                if !seen[c] {
                    seen[c] = true;
                    queue.push_back(c);
                }
            }
        }
        false
    }

    /// All strict descendants of `node`, sorted.
    pub fn descendants(&self, node: usize) -> Vec<usize> {
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::from([node]);
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            for &c in &self.children[u] {
                if !seen[c] {
                    seen[c] = true;
                    out.push(c);
                    queue.push_back(c);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// A topological ordering (stable: among ready nodes, the smallest index
    /// first).
    pub fn topological_order(&self) -> Vec<usize> {
        let mut indegree: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(&u) = ready.first() {
            ready.remove(0);
            order.push(u);
            for &c in &self.children[u] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    // keep `ready` sorted for determinism
                    let pos = ready.partition_point(|&x| x < c);
                    ready.insert(pos, c);
                }
            }
        }
        order
    }

    /// Edge count.
    pub fn n_edges(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 → 1 → 3, 0 → 2 → 3
        let mut g = Dag::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn ancestry_queries() {
        let g = diamond();
        assert!(g.is_ancestor(0, 3));
        assert!(!g.is_ancestor(3, 0));
        assert_eq!(g.descendants(0), vec![1, 2, 3]);
        assert_eq!(g.descendants(3), Vec::<usize>::new());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_rejected() {
        let mut g = diamond();
        g.add_edge(3, 0);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        assert_eq!(order.len(), 4);
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Dag::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.n_edges(), 1);
    }
}
