//! The paper's general algorithm (Figure 7).

use crate::provenance::Recorder;
use crate::{reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_lang::StmtId;
use jumpslice_obs as obs;

/// Agrawal's Figure 7: the slicing algorithm for programs with arbitrary
/// jump statements.
///
/// Starting from the conventional slice (which, via the fused
/// conditional-goto adaptation, already handles conditional jumps), it
/// repeatedly traverses the postdominator tree in preorder; an
/// *unconditional* jump statement `J` not yet in the slice is added —
/// together with the transitive closure of its dependences — when its
/// *nearest postdominator in the slice* differs from its *nearest lexical
/// successor in the slice* (or when the [`Analysis::dowhile_hazard`]
/// extension guard fires). When a full traversal adds nothing, it
/// re-associates the labels of in-slice `goto`s whose targets fell outside
/// the slice.
///
/// `Slice::traversals` reports the number of productive traversals; the
/// paper's Figure 10 program is the canonical example needing two.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion, agrawal_slice};
/// let p = corpus::fig3();
/// let a = Analysis::new(&p);
/// let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
/// // Figure 3-c: the gotos on lines 7 and 13 join; the one on line 11 does not.
/// assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 13, 15]);
/// ```
pub fn agrawal_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let order = a.jumps_in_pdom_preorder();
    agrawal_slice_with_order(a, crit, &order)
}

/// Figure 7 driven by an explicit jump visit order.
///
/// The paper notes the preorder of the lexical successor tree works equally
/// well (possibly with a different traversal count but the same final
/// slice); pass [`Analysis::jumps_in_lst_preorder`] to use it. The ablation
/// bench compares the two drivers. On the paper's figures the drivers agree
/// exactly; on adversarial goto programs both remain sound supersets of the
/// Ball–Horwitz slice but can differ (see `tests/extension_gaps.rs`).
pub fn agrawal_slice_with_order(
    a: &Analysis<'_>,
    crit: &Criterion,
    jump_order: &[StmtId],
) -> Slice {
    figure7(a, crit, jump_order, None)
}

/// The single Figure-7 entry point behind both the plain slicers and the
/// traced [`crate::agrawal_slice_traced`]: one code path, so a provenance
/// record can never diverge from the slice it explains. `rec`, when present,
/// is told why each statement entered the slice.
///
/// Dispatches to the sparse change-driven kernel whenever the chain index
/// can honor `jump_order` (always, for the orders this crate produces);
/// falls back to the dense [`figure7_reference`] loop otherwise. The two
/// are bit-identical — slices, traversal counts, emitted events, recorded
/// provenance — which the differential harness's `sparse` mode enforces.
pub(crate) fn figure7(
    a: &Analysis<'_>,
    crit: &Criterion,
    jump_order: &[StmtId],
    rec: Option<&mut Recorder>,
) -> Slice {
    if crate::sparse::covers(a, jump_order) {
        crate::sparse::figure7_sparse(a, crit, jump_order, rec)
    } else {
        figure7_reference(a, crit, jump_order, rec)
    }
}

/// The dense loop itself: re-tests every out-of-slice jump each round.
pub(crate) fn figure7_reference(
    a: &Analysis<'_>,
    crit: &Criterion,
    jump_order: &[StmtId],
    mut rec: Option<&mut Recorder>,
) -> Slice {
    let mut stmts = {
        let _t = obs::phase(obs::Phase::ConventionalClosure);
        match rec.as_deref_mut() {
            Some(r) => r.seed_closure(a, crit),
            None => a.backward_closure(crit.seeds(a)),
        }
    };
    let mut traversals = 0usize;
    let mut round: u32 = 0;
    loop {
        round += 1;
        // Cooperative deadline probe: one full traversal is the dense
        // loop's natural unit of interruptible work.
        crate::cancel::checkpoint();
        let mut admitted: u32 = 0;
        {
            let _t = obs::phase_round(obs::Phase::FixpointRound, round);
            for &j in jump_order {
                if stmts.contains(j) {
                    continue;
                }
                let npd = a.nearest_pdom_in(j, &stmts);
                let nls = a.nearest_lexsucc_in(j, &stmts);
                // `dowhile_hazard` extends the paper's test to the do-while
                // construct this workspace adds; it never fires on the
                // paper's own language (see Analysis::dowhile_hazard).
                let disagree = npd != nls;
                if disagree || a.dowhile_hazard(j, &stmts) {
                    obs::record(|| obs::Event::JumpAdmitted {
                        algo: "fig7",
                        line: a.prog().line_of(j) as u32,
                        round,
                        reason: if disagree {
                            obs::AdmitReason::PdomLexsuccDisagree {
                                npd_line: npd.map(|s| a.prog().line_of(s) as u32),
                                nls_line: nls.map(|s| a.prog().line_of(s) as u32),
                            }
                        } else {
                            obs::AdmitReason::DoWhileHazard
                        },
                    });
                    // Add J and the transitive closure of its dependences.
                    // The in-place closure treats statements already in the
                    // slice as visited: sound, because the slice is closed
                    // under dependence at every point of the traversal —
                    // the same invariant that lets the closure engine skip
                    // every component already in the slice.
                    match rec.as_deref_mut() {
                        Some(r) => r.jump_closure(a, j, round, npd, nls, !disagree, &mut stmts),
                        None => a.closure_index().backward_closure_into([j], &mut stmts),
                    }
                    admitted += 1;
                }
            }
        }
        obs::record(|| obs::Event::Round {
            algo: "fig7",
            round,
            admitted,
        });
        if admitted == 0 {
            break;
        }
        traversals += 1;
    }
    let moved_labels = {
        let _t = obs::phase(obs::Phase::LabelReassoc);
        reassociate_labels(a, &stmts)
    };
    Slice {
        stmts,
        moved_labels,
        traversals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conventional_slice, corpus};

    #[test]
    fn figure_3_slice_and_labels() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 13, 15]);
        assert_eq!(s.traversals, 1, "paper: a single traversal suffices");
        // goto L14's target (line 14) is not in the slice: L14 moves to its
        // nearest postdominator in the slice, write(positives) on line 15.
        let l14 = p.label("L14").unwrap();
        assert_eq!(s.moved_labels, vec![(l14, Some(p.at_line(15)))]);
    }

    #[test]
    fn figure_5_slice() {
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(14)));
        // Figure 5-c: includes continue on 7, omits continue on 11.
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 14]);
        assert_eq!(s.traversals, 1);
        assert!(
            s.moved_labels.is_empty(),
            "structured jumps carry no labels"
        );
    }

    #[test]
    fn figure_8_slice_pulls_predicate_9() {
        let p = corpus::fig8();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        // Figure 8-c: jumps 7, 11, 13 and predicate 9 join the slice.
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 9, 11, 13, 15]);
        assert_eq!(s.traversals, 1);
    }

    #[test]
    fn figure_10_needs_two_traversals() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(9)));
        // Figure 10-b.
        assert_eq!(s.lines(&p), vec![1, 2, 3, 4, 7, 9]);
        assert_eq!(s.traversals, 2, "node 4 only joins in the second pass");
        // Both goto targets (6 and 8) fell out: L6 re-targets the goto on
        // line 7, L8 re-targets write(y) on line 9.
        let mut moved = s.moved_labels.clone();
        moved.sort_by_key(|&(l, _)| p.label_str(l).to_owned());
        assert_eq!(
            moved,
            vec![
                (p.label("L6").unwrap(), Some(p.at_line(7))),
                (p.label("L8").unwrap(), Some(p.at_line(9))),
            ]
        );
    }

    #[test]
    fn figure_16_correct_slice() {
        let p = corpus::fig16();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(10)));
        // Figure 16-c: the goto on line 4 is included; L6 re-associates.
        assert_eq!(s.lines(&p), vec![1, 2, 3, 4, 5, 10]);
        let l6 = p.label("L6").unwrap();
        assert_eq!(s.moved_labels, vec![(l6, Some(p.at_line(10)))]);
    }

    #[test]
    fn lst_driven_traversal_gives_same_slice() {
        for p in [
            corpus::fig3(),
            corpus::fig5(),
            corpus::fig8(),
            corpus::fig10(),
            corpus::fig16(),
        ] {
            let a = Analysis::new(&p);
            let last = p.lexical_order().len();
            let crit = Criterion::at_stmt(p.at_line(last));
            let by_pdom = agrawal_slice(&a, &crit);
            let by_lst = agrawal_slice_with_order(&a, &crit, &a.jumps_in_lst_preorder());
            assert_eq!(by_pdom.stmts, by_lst.stmts);
        }
    }

    #[test]
    fn slice_on_jump_free_program_equals_conventional() {
        let p = corpus::fig1();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(12));
        let conv = conventional_slice(&a, &crit);
        let full = agrawal_slice(&a, &crit);
        assert_eq!(conv.stmts, full.stmts);
        assert_eq!(full.traversals, 0);
    }
}
