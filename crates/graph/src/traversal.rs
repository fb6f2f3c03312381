//! Depth-first traversal orders and reachability.

use crate::{DiGraph, NodeId};

/// Returns a boolean mask of nodes reachable from `root` (inclusive).
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{DiGraph, reachable_from};
/// let mut g = DiGraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// let r = reachable_from(&g, 0.into());
/// assert_eq!(r, vec![true, true, false]);
/// ```
pub fn reachable_from(g: &DiGraph, root: NodeId) -> Vec<bool> {
    flood(g.len(), root, |n| g.succs(n))
}

/// Returns a boolean mask of nodes that can reach `target` (inclusive):
/// [`reachable_from`] over predecessor lists, without building the
/// reversed graph.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{can_reach, DiGraph};
/// let mut g = DiGraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// assert_eq!(can_reach(&g, 1.into()), vec![true, true, false]);
/// ```
pub fn can_reach(g: &DiGraph, target: NodeId) -> Vec<bool> {
    flood(g.len(), target, |n| g.preds(n))
}

fn flood<'g>(len: usize, root: NodeId, next: impl Fn(NodeId) -> &'g [NodeId]) -> Vec<bool> {
    let mut seen = vec![false; len];
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(n) = stack.pop() {
        for &m in next(n) {
            if !seen[m.index()] {
                seen[m.index()] = true;
                stack.push(m);
            }
        }
    }
    seen
}

/// Depth-first preorder of the nodes reachable from `root`.
///
/// Children are visited in successor-list order, matching the deterministic
/// construction order of the CFG crate.
pub fn dfs_preorder(g: &DiGraph, root: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut seen = vec![false; g.len()];
    // An explicit stack with reversed successor pushes yields the same order
    // as the recursive formulation without risking stack overflow on the
    // large generated programs used in the benches.
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(n) = stack.pop() {
        order.push(n);
        for &m in g.succs(n).iter().rev() {
            if !seen[m.index()] {
                seen[m.index()] = true;
                stack.push(m);
            }
        }
    }
    order
}

/// Depth-first postorder of the nodes reachable from `root`.
pub fn dfs_postorder(g: &DiGraph, root: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut seen = vec![false; g.len()];
    // Stack frames carry the index of the next successor to visit.
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    seen[root.index()] = true;
    while let Some(&mut (n, ref mut i)) = stack.last_mut() {
        if let Some(&m) = g.succs(n).get(*i) {
            *i += 1;
            if !seen[m.index()] {
                seen[m.index()] = true;
                stack.push((m, 0));
            }
        } else {
            order.push(n);
            stack.pop();
        }
    }
    order
}

/// Reverse postorder from `root` — the canonical iteration order for forward
/// dataflow problems and for the Cooper–Harvey–Kennedy dominator algorithm.
pub fn reverse_postorder(g: &DiGraph, root: NodeId) -> Vec<NodeId> {
    let mut order = dfs_postorder(g, root);
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph {
        let mut g = DiGraph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(i.into(), (i + 1).into());
        }
        g
    }

    #[test]
    fn reachability_respects_direction() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(2.into(), 1.into());
        g.add_edge(1.into(), 3.into());
        let r = reachable_from(&g, 0.into());
        assert_eq!(r, vec![true, true, false, true]);
    }

    #[test]
    fn preorder_on_chain_is_identity() {
        let g = chain(5);
        let order: Vec<usize> = dfs_preorder(&g, 0.into())
            .iter()
            .map(|n| n.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn postorder_on_chain_is_reversed() {
        let g = chain(4);
        let order: Vec<usize> = dfs_postorder(&g, 0.into())
            .iter()
            .map(|n| n.index())
            .collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn rpo_starts_at_root() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let rpo = reverse_postorder(&g, 0.into());
        assert_eq!(rpo[0], NodeId::new(0));
        assert_eq!(*rpo.last().unwrap(), NodeId::new(3));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn traversals_skip_unreachable() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        assert_eq!(dfs_preorder(&g, 0.into()).len(), 2);
        assert_eq!(dfs_postorder(&g, 0.into()).len(), 2);
    }

    #[test]
    fn preorder_visits_parents_before_children() {
        let mut g = DiGraph::with_nodes(6);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5), (5, 2)] {
            g.add_edge(a.into(), b.into());
        }
        let pre = dfs_preorder(&g, 0.into());
        let pos = |n: usize| pre.iter().position(|m| m.index() == n).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(2) < pos(4));
        assert!(pos(4) < pos(5));
    }

    #[test]
    fn cycle_terminates() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(2.into(), 0.into());
        assert_eq!(dfs_preorder(&g, 0.into()).len(), 3);
        assert_eq!(reverse_postorder(&g, 0.into()).len(), 3);
    }
}
