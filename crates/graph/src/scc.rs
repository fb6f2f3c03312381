//! Tarjan strongly-connected components and graph condensation.
//!
//! The PDG's closure engine condenses the dependence graph with
//! [`condensation`].

use crate::{DiGraph, NodeId};

/// Computes strongly-connected components with Tarjan's algorithm.
///
/// Returns the components in reverse topological order (callees/loop bodies
/// first), each component listing its member nodes. Singleton components
/// without a self-loop are trivial.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{DiGraph, tarjan_scc};
/// let mut g = DiGraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 0.into());
/// g.add_edge(1.into(), 2.into());
/// let sccs = tarjan_scc(&g);
/// assert_eq!(sccs.len(), 2);
/// assert!(sccs.iter().any(|c| c.len() == 2));
/// ```
pub fn tarjan_scc(g: &DiGraph) -> Vec<Vec<NodeId>> {
    const UNVISITED: u32 = u32::MAX;
    let n = g.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut sccs = Vec::new();
    let mut counter = 0u32;

    // Iterative Tarjan: frames carry (node, next-successor-index).
    for start in g.nodes() {
        if index[start.index()] != UNVISITED {
            continue;
        }
        let mut call: Vec<(NodeId, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut i)) = call.last_mut() {
            if *i == 0 {
                index[v.index()] = counter;
                lowlink[v.index()] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v.index()] = true;
            }
            if let Some(&w) = g.succs(v).get(*i) {
                *i += 1;
                if index[w.index()] == UNVISITED {
                    call.push((w, 0));
                } else if on_stack[w.index()] {
                    lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                }
            } else {
                if lowlink[v.index()] == index[v.index()] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w.index()] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    lowlink[p.index()] = lowlink[p.index()].min(lowlink[v.index()]);
                }
            }
        }
    }
    sccs
}

/// Builds the condensation (SCC quotient DAG) of `g`.
///
/// Returns the quotient graph, the component index of every original node,
/// and each component's members, all in [`tarjan_scc`]'s order: every
/// quotient edge runs from a larger component id to a smaller one.
pub fn condensation(g: &DiGraph) -> (DiGraph, Vec<usize>, Vec<Vec<NodeId>>) {
    let sccs = tarjan_scc(g);
    let mut comp_of = vec![0usize; g.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v.index()] = ci;
        }
    }
    // `seen[cb] == ca` marks the quotient edge ca -> cb as already listed.
    let mut seen = vec![usize::MAX; sccs.len()];
    let succs = sccs
        .iter()
        .enumerate()
        .map(|(ca, comp)| {
            let mut out = Vec::new();
            for &v in comp {
                for &w in g.succs(v) {
                    let cb = comp_of[w.index()];
                    if cb != ca && seen[cb] != ca {
                        seen[cb] = ca;
                        out.push(NodeId::new(cb));
                    }
                }
            }
            out
        })
        .collect();
    let q = DiGraph::from_succs(succs).expect("stamped quotient lists are duplicate-free");
    (q, comp_of, sccs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_gives_singletons() {
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (0, 3), (3, 2)] {
            g.add_edge(a.into(), b.into());
        }
        let sccs = tarjan_scc(&g);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn single_cycle_is_one_component() {
        let mut g = DiGraph::with_nodes(3);
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            g.add_edge(a.into(), b.into());
        }
        let sccs = tarjan_scc(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 3);
    }

    #[test]
    fn reverse_topological_order() {
        // 0 -> 1 <-> 2, 1 -> 3: components {0}, {1,2}, {3}; {3} must come
        // before {1,2}, which must come before {0}.
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 1), (1, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let sccs = tarjan_scc(&g);
        let pos = |v: usize| {
            sccs.iter()
                .position(|c| c.contains(&NodeId::new(v)))
                .unwrap()
        };
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(0));
        assert_eq!(pos(1), pos(2));
    }

    #[test]
    fn condensation_is_acyclic() {
        let mut g = DiGraph::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let (q, comp_of, members) = condensation(&g);
        assert_eq!(q.len(), 3);
        assert_eq!(comp_of[1], comp_of[2]);
        assert_eq!(comp_of[3], comp_of[4]);
        assert_eq!(members[comp_of[1]], vec![NodeId::new(1), NodeId::new(2)]);
        // One quotient edge per pair of components, pointing to smaller ids.
        assert_eq!(q.num_edges(), 2);
        assert!(q.edges().all(|(a, b)| a > b));
        // The quotient of SCCs never has nontrivial SCCs.
        let qs = tarjan_scc(&q);
        assert!(qs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn disconnected_graph_covered() {
        let g = DiGraph::with_nodes(3);
        let sccs = tarjan_scc(&g);
        assert_eq!(sccs.len(), 3);
    }
}
