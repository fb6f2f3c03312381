//! Tarjan strongly-connected components and graph condensation over flat
//! rows.
//!
//! The PDG's closure engine condenses the dependence graph with
//! [`condensation`]. Graphs here are [`Rows`] — one `u32` buffer of
//! successor rows — so a graph with millions of edges costs two
//! allocations, not one per node, and the condensation hands back its
//! tables in the same form.

/// A table of `u32` rows in one buffer: row `i` is
/// `items[start[i]..start[i + 1]]`. As a graph, row `v` lists `v`'s
/// successors.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::Rows;
/// let mut r = Rows::with_capacity(2, 2);
/// r.push_row([1, 2]);
/// r.push_row([]);
/// assert_eq!(r.len(), 2);
/// assert_eq!(r.row(0), &[1, 2]);
/// assert!(r.row(1).is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rows {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Rows {
    /// An empty table with room for `rows` rows of `items` items in total.
    pub fn with_capacity(rows: usize, items: usize) -> Rows {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Rows {
            start,
            items: Vec::with_capacity(items),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold 2^32 items or more.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        self.items.extend(row);
        self.close_row();
    }

    fn close_row(&mut self) {
        let end = u32::try_from(self.items.len()).expect("a table holds fewer than 2^32 items");
        self.start.push(end);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The transposed table over `n` rows: row `t` lists, ascending, every
    /// `i` whose row contains `t` (as a graph: the predecessor lists).
    ///
    /// # Panics
    ///
    /// Panics if an item is `n` or more.
    pub fn transpose(&self, n: usize) -> Rows {
        let mut start = vec![0u32; n + 1];
        for &t in &self.items {
            start[t as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; self.items.len()];
        for i in 0..self.len() {
            for &t in self.row(i) {
                let slot = &mut fill[t as usize];
                items[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        Rows { start, items }
    }
}

/// The condensation (SCC quotient DAG) of a graph, from [`condensation`].
///
/// Components are numbered in Tarjan's completion order, which is reverse
/// topological: every quotient edge runs from a larger component id to a
/// smaller one.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Node → component id.
    pub comp_of: Vec<u32>,
    /// Each component's member nodes, ascending.
    pub members: Rows,
    /// Each component's quotient successors, duplicate-free, in order of
    /// first discovery over the members' successor rows.
    pub succs: Rows,
}

/// Condenses the graph whose node `v` has successors `g.row(v)`: Tarjan's
/// algorithm (iterative, nodes started in ascending order, successors
/// taken in row order), then one pass over the edges for the quotient.
/// O(V + E).
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{condensation, Rows};
/// let mut g = Rows::with_capacity(3, 3);
/// g.push_row([1]); // 0 -> 1
/// g.push_row([0, 2]); // 1 -> 0, 1 -> 2
/// g.push_row([]);
/// let c = condensation(&g);
/// assert_eq!(c.members.len(), 2);
/// assert_eq!(c.comp_of[0], c.comp_of[1]);
/// // {2} completes first; the cycle's component points at it.
/// assert_eq!(c.members.row(0), &[2]);
/// assert_eq!(c.succs.row(1), &[0]);
/// ```
///
/// # Panics
///
/// Panics if a successor is not a node of `g`.
pub fn condensation(g: &Rows) -> Condensation {
    const UNVISITED: u32 = u32::MAX;
    let n = g.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp_of = vec![0u32; n];
    let mut members = Rows::with_capacity(n, n);
    let mut counter = 0u32;

    // Frames carry (node, next-successor position).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNVISITED {
            continue;
        }
        call.push((start, 0));
        while let Some(&mut (v, ref mut i)) = call.last_mut() {
            let vi = v as usize;
            if *i == 0 {
                index[vi] = counter;
                lowlink[vi] = counter;
                counter += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            if let Some(&w) = g.row(vi).get(*i) {
                *i += 1;
                let wi = w as usize;
                if index[wi] == UNVISITED {
                    call.push((w, 0));
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            } else {
                if lowlink[vi] == index[vi] {
                    let c = members.len() as u32;
                    let from = members.items.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack invariant");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = c;
                        members.items.push(w);
                        if w == v {
                            break;
                        }
                    }
                    members.items[from..].sort_unstable();
                    members.close_row();
                }
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    let pi = p as usize;
                    lowlink[pi] = lowlink[pi].min(lowlink[vi]);
                }
            }
        }
    }

    // `seen[cb] == ca` marks the quotient edge ca -> cb as already listed.
    let k = members.len();
    let mut seen = vec![u32::MAX; k];
    let mut succs = Rows::with_capacity(k, 0);
    for ca in 0..k {
        for &v in members.row(ca) {
            for &w in g.row(v as usize) {
                let cb = comp_of[w as usize];
                if cb != ca as u32 && seen[cb as usize] != ca as u32 {
                    seen[cb as usize] = ca as u32;
                    succs.items.push(cb);
                }
            }
        }
        succs.close_row();
    }
    Condensation {
        comp_of,
        members,
        succs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Rows {
        let mut g = Rows::with_capacity(n, edges.len());
        for v in 0..n as u32 {
            g.push_row(edges.iter().filter(|e| e.0 == v).map(|e| e.1));
        }
        g
    }

    fn component_of(c: &Condensation, v: u32) -> usize {
        c.comp_of[v as usize] as usize
    }

    #[test]
    fn dag_gives_singletons() {
        let c = condensation(&graph(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]));
        assert_eq!(c.members.len(), 4);
        assert!((0..4).all(|i| c.members.row(i).len() == 1));
    }

    #[test]
    fn single_cycle_is_one_component() {
        let c = condensation(&graph(3, &[(0, 1), (1, 2), (2, 0)]));
        assert_eq!(c.members.len(), 1);
        assert_eq!(c.members.row(0), &[0, 1, 2]);
        assert!(c.succs.row(0).is_empty(), "no self edge in the quotient");
    }

    #[test]
    fn reverse_topological_order() {
        // 0 -> 1 <-> 2, 1 -> 3: components {0}, {1,2}, {3}; {3} must come
        // before {1,2}, which must come before {0}.
        let c = condensation(&graph(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]));
        assert!(component_of(&c, 3) < component_of(&c, 1));
        assert!(component_of(&c, 1) < component_of(&c, 0));
        assert_eq!(component_of(&c, 1), component_of(&c, 2));
    }

    #[test]
    fn condensation_is_acyclic() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]);
        let c = condensation(&g);
        assert_eq!(c.members.len(), 3);
        assert_eq!(c.comp_of[1], c.comp_of[2]);
        assert_eq!(c.comp_of[3], c.comp_of[4]);
        assert_eq!(c.members.row(component_of(&c, 1)), &[1, 2]);
        // One quotient edge per pair of components, pointing to smaller ids.
        let quotient_edges: usize = (0..c.succs.len()).map(|ca| c.succs.row(ca).len()).sum();
        assert_eq!(quotient_edges, 2);
        for ca in 0..c.succs.len() {
            assert!(c.succs.row(ca).iter().all(|&cb| (cb as usize) < ca));
        }
        // The quotient of SCCs never has nontrivial SCCs.
        let q = condensation(&c.succs);
        assert_eq!(q.members.len(), c.members.len());
    }

    #[test]
    fn disconnected_graph_covered() {
        let c = condensation(&graph(3, &[]));
        assert_eq!(c.members.len(), 3);
        let mut all: Vec<u32> = (0..3).flat_map(|i| c.members.row(i).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn transpose_lists_predecessors_ascending() {
        let g = graph(4, &[(0, 2), (1, 2), (2, 0), (3, 1), (3, 2)]);
        let t = g.transpose(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.row(0), &[2]);
        assert_eq!(t.row(1), &[3]);
        assert_eq!(t.row(2), &[0, 1, 3]);
        assert!(t.row(3).is_empty());
        assert_eq!(t.transpose(4), g, "transposing twice restores sorted rows");
    }
}
