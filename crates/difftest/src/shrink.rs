//! Greedy counterexample minimization.
//!
//! Given a program that exhibits a failure (per an arbitrary predicate),
//! the shrinker alternates two reduction phases until neither makes
//! progress:
//!
//! 1. **Subtree deletion** — drop one statement together with its nested
//!    block, render the survivor through the pretty-printer's filter, and
//!    reparse. Printing-and-reparsing sidesteps interner surgery: labels on
//!    deleted carriers vanish, and a kept `goto` to a vanished label simply
//!    fails validation, rejecting the candidate.
//! 2. **Expression simplification** — replace one statement's expression
//!    with a strictly smaller one (`0`, `1`, or an operand) via a full
//!    program rebuild (`rewrite.rs`).
//!
//! Every candidate must stay *valid fuzzing material*: it parses, every
//! statement reaches the exit (postdominators exist — `Analysis` requires
//! this), every statement is reachable, and at least one live `write`
//! remains to serve as a slicing criterion. Only then is the failure
//! predicate consulted.

use crate::rewrite::{expr_size, replace_expr, simpler_candidates, stmt_expr};
use jumpslice_cfg::Cfg;
use jumpslice_lang::{parse, print_with_options, PrintOptions, Program, StmtKind, Structure};

/// Upper bound on candidate evaluations per shrink run, so a pathological
/// predicate cannot stall the whole fuzzing session.
const MAX_CANDIDATES: usize = 4_000;

/// Checks that a candidate is still usable by the harness: every statement
/// reaches the exit (`Analysis` requires it — postdominators must exist)
/// and at least one *reachable* `write` remains to slice at. Dead code is
/// allowed: the generators emit it (a `break` after a `break`) and several
/// pinned bugs live exactly there.
pub fn is_valid_candidate(p: &Program) -> bool {
    if p.is_empty() {
        return false;
    }
    let c = Cfg::build(p);
    let Some(live) = c.reachable_if_all_reach_exit() else {
        return false;
    };
    p.stmt_ids()
        .any(|s| matches!(p.stmt(s).kind, StmtKind::Write { .. }) && live[c.node(s).index()])
}

/// The candidate program with statement `victim` (and its nested block)
/// deleted, or `None` if the result does not survive reparse + validation.
fn drop_subtree(
    p: &Program,
    structure: &Structure,
    victim: jumpslice_lang::StmtId,
) -> Option<Program> {
    let keep = |s: jumpslice_lang::StmtId| s != victim && !structure.contains(victim, s);
    let text = print_with_options(
        p,
        &PrintOptions {
            filter: Some(&keep),
            moved_labels: &[],
            line_numbers: false,
        },
    );
    let q = parse(&text).ok()?;
    is_valid_candidate(&q).then_some(q)
}

/// Greedily minimizes `p` while `fails` keeps holding. Returns the smallest
/// program reached (possibly `p` itself, cloned, when nothing could be
/// removed).
pub fn shrink(p: &Program, fails: &dyn Fn(&Program) -> bool) -> Program {
    let mut cur = p.clone();
    let mut budget = MAX_CANDIDATES;
    loop {
        let mut progressed = false;

        // Phase 1: subtree deletion, largest subtrees first so one accepted
        // candidate can erase many statements at once.
        'deletion: loop {
            let structure = Structure::of(&cur);
            let mut victims: Vec<_> = cur.stmt_ids().collect();
            victims.sort_by_key(|&v| {
                std::cmp::Reverse(cur.stmt_ids().filter(|&s| structure.contains(v, s)).count())
            });
            for v in victims {
                if budget == 0 {
                    return cur;
                }
                budget -= 1;
                if let Some(q) = drop_subtree(&cur, &structure, v) {
                    if q.len() < cur.len() && fails(&q) {
                        cur = q;
                        progressed = true;
                        continue 'deletion;
                    }
                }
            }
            break;
        }

        // Phase 2: expression simplification.
        'simplify: loop {
            let stmts: Vec<_> = cur.stmt_ids().collect();
            for s in stmts {
                let Some(e) = stmt_expr(&cur, s) else {
                    continue;
                };
                let orig_size = expr_size(e);
                for cand in simpler_candidates(e) {
                    if budget == 0 {
                        return cur;
                    }
                    budget -= 1;
                    if let Some(q) = replace_expr(&cur, s, &cand) {
                        let shrunk = stmt_expr(&q, s)
                            .map(expr_size)
                            .is_some_and(|n| n < orig_size);
                        if shrunk && is_valid_candidate(&q) && fails(&q) {
                            cur = q;
                            progressed = true;
                            continue 'simplify;
                        }
                    }
                }
            }
            break;
        }

        if !progressed {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_failing_core() {
        // Predicate: program still writes the variable `bad`.
        let p = parse(
            "read(a);
             read(b);
             c = a + b;
             if (a > 0) { c = c * 2; }
             while (!eof()) { b = b + 1; }
             bad = 7;
             write(bad);
             write(c);",
        )
        .unwrap();
        let fails = |q: &Program| {
            q.name("bad")
                .map(|n| q.stmt_ids().any(|s| q.defs(s) == Some(n)))
                .unwrap_or(false)
        };
        assert!(fails(&p));
        let small = shrink(&p, &fails);
        assert!(fails(&small));
        // Everything except the `bad` assignment and one write is noise.
        assert!(
            small.len() <= 3,
            "{}",
            jumpslice_lang::print_program(&small)
        );
    }

    #[test]
    fn expression_simplification_kicks_in() {
        let p = parse("read(a); x = a * 3 + f1(a); write(x);").unwrap();
        // Predicate: some assignment to x exists.
        let fails = |q: &Program| {
            q.name("x")
                .map(|n| q.stmt_ids().any(|s| q.defs(s) == Some(n)))
                .unwrap_or(false)
        };
        let small = shrink(&p, &fails);
        let text = jumpslice_lang::print_program(&small);
        assert!(
            !text.contains("f1"),
            "call should be simplified away: {text}"
        );
    }

    #[test]
    fn invalid_candidates_are_rejected() {
        // Dropping the label's carrier would orphan the goto; the shrinker
        // must keep the program consistent at every step.
        let p = parse("read(x); if (x > 0) goto L; x = 0; L: write(x);").unwrap();
        let fails = |q: &Program| q.stmt_ids().count() >= 2;
        let small = shrink(&p, &fails);
        assert!(is_valid_candidate(&small));
    }
}
