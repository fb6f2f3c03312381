//! Lyle's extremely conservative algorithm (paper, §5; [22]).

use crate::{reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_graph::{can_reach, reachable_from};
use jumpslice_lang::StmtId;

/// Lyle's rule, as the paper characterizes it: once a statement `S` is in
/// the slice, include **every jump statement lying between `S` and the
/// criterion location in the flowgraph** — i.e. every jump reachable from
/// some slice statement from which the criterion is still reachable —
/// together with the closure of its dependences, iterated to a fixpoint.
///
/// Always sound, wildly imprecise: on Figure 5 it drags in the `continue`
/// on line 11 (and hence the predicate on line 9); on Figure 3 it keeps
/// every `goto` and every predicate.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion};
/// use jumpslice_core::baselines::lyle_slice;
/// let p = corpus::fig5();
/// let a = Analysis::new(&p);
/// let s = lyle_slice(&a, &Criterion::at_stmt(p.at_line(14)));
/// assert!(s.lines(&p).contains(&11), "Lyle keeps the second continue");
/// assert!(s.lines(&p).contains(&9), "and therefore the predicate on 9");
/// ```
pub fn lyle_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let mut stmts = crate::conventional_slice(a, crit).stmts;
    let g = a.cfg().graph();
    // Nodes from which the criterion location is reachable.
    let reaches_crit = can_reach(g, a.cfg().node(crit.stmt));
    let jumps: Vec<StmtId> = a
        .prog()
        .stmt_ids()
        .filter(|&s| a.is_jump(s) && a.is_live(s))
        .collect();

    loop {
        // Nodes reachable from some current slice statement.
        let mut from_slice = vec![false; g.len()];
        for s in stmts.iter() {
            for n in reachable_from(g, a.cfg().node(s))
                .iter()
                .enumerate()
                .filter_map(|(i, &r)| r.then_some(i))
            {
                from_slice[n] = true;
            }
        }
        let mut added = false;
        for &j in &jumps {
            if stmts.contains(j) {
                continue;
            }
            let n = a.cfg().node(j);
            if from_slice[n.index()] && reaches_crit[n.index()] {
                a.pdg().backward_closure_into([j], &mut stmts);
                added = true;
            }
        }
        if !added {
            break;
        }
    }
    let moved_labels = reassociate_labels(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agrawal_slice, corpus};

    #[test]
    fn fig5_includes_both_continues() {
        // §5: "Unlike any of the algorithms presented in this paper, Lyle's
        // algorithm will also include the continue statement on line 11,
        // and therefore the predicate on line 9, in the slice."
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let s = lyle_slice(&a, &Criterion::at_stmt(p.at_line(14)));
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 9, 11, 14]);
    }

    #[test]
    fn fig3_includes_all_gotos_and_predicates() {
        // §5: "it will include all goto statements and all predicates in
        // the example in Figure 3, although some of them could be omitted."
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let s = lyle_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        let lines = s.lines(&p);
        for jump_line in [3, 5, 7, 9, 11, 13] {
            assert!(lines.contains(&jump_line), "missing jump at {jump_line}");
        }
        // Strictly bigger than the precise slice.
        let precise = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        assert!(precise.stmts.is_subset(&s.stmts));
        assert!(precise.stmts.len() < s.stmts.len());
    }

    #[test]
    fn superset_of_figure_7_on_corpus() {
        for (name, p, line) in corpus::all() {
            if name == "fig10" {
                continue; // see degenerate_case_figure_10
            }
            let a = Analysis::new(&p);
            let crit = Criterion::at_stmt(p.at_line(line));
            let precise = agrawal_slice(&a, &crit);
            let lyle = lyle_slice(&a, &crit);
            assert!(
                precise.stmts.is_subset(&lyle.stmts),
                "{name}: Lyle must over-approximate"
            );
        }
    }

    #[test]
    fn degenerate_case_figure_10() {
        // The paper hedges: Lyle includes the in-between jumps "except in
        // certain degenerate cases". Figure 10 is one: the gotos on lines 2
        // and 7 lie *before* every slice statement on every path, so the
        // between-S-and-loc rule never fires for them and the result is not
        // a superset of the correct slice.
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(9));
        let lyle = lyle_slice(&a, &crit);
        assert_eq!(lyle.lines(&p), vec![3, 4, 9]);
        let correct = agrawal_slice(&a, &crit);
        assert!(!correct.stmts.is_subset(&lyle.stmts));
    }
}
