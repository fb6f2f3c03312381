//! The result type shared by every slicing algorithm.

use jumpslice_dataflow::StmtSet;
use jumpslice_lang::{Label, Program, StmtId};

/// A point a tree walk can land on: a statement, or the program exit.
///
/// "Nearest postdominator in the slice" and "nearest lexical successor in
/// the slice" both bottom out at the exit node, which is implicitly part of
/// every slice; `None` encodes it.
pub type SlicePoint = Option<StmtId>;

/// The outcome of a slicing algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slice {
    /// The statements included in the slice, as a dense bitset. Iteration
    /// is in ascending statement-id order. That is lexical order for parsed
    /// programs but not in general: `ProgramBuilder::if_else` and `while_`
    /// allocate a compound statement's id after its branches. Use
    /// [`Slice::lines`] (which sorts by line) or [`Slice::render`] for
    /// lexical order.
    pub stmts: StmtSet,
    /// Labels whose original carrier fell out of the slice, re-associated
    /// with their target's nearest postdominator in the slice (`None` = the
    /// program exit) — the final step of the paper's Figure 7.
    pub moved_labels: Vec<(Label, SlicePoint)>,
    /// Number of *productive* postdominator-tree traversals (traversals
    /// that added at least one jump). The paper's Figures 3/8 need 1,
    /// Figure 10 needs 2; algorithms without a traversal report 0.
    pub traversals: usize,
}

impl Slice {
    /// Wraps a bare statement set.
    pub fn from_stmts(stmts: StmtSet) -> Slice {
        Slice {
            stmts,
            moved_labels: Vec::new(),
            traversals: 0,
        }
    }

    /// Whether `s` is in the slice.
    pub fn contains(&self, s: StmtId) -> bool {
        self.stmts.contains(s)
    }

    /// Number of statements in the slice.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Paper-style line numbers of the slice statements, sorted — the format
    /// used throughout the tests and the figure harness.
    pub fn lines(&self, prog: &Program) -> Vec<usize> {
        let mut lines: Vec<usize> = self.stmts.iter().map(|s| prog.line_of(s)).collect();
        lines.sort_unstable();
        lines
    }

    /// Renders the residual program with paper-style numbering and
    /// re-associated labels.
    pub fn render(&self, prog: &Program) -> String {
        jumpslice_lang::print_slice(prog, &|s| self.contains(s), &self.moved_labels)
    }

    /// Whether `other` includes every statement of `self`.
    pub fn subset_of(&self, other: &Slice) -> bool {
        self.stmts.is_subset(&other.stmts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    #[test]
    fn lines_are_sorted_lexically() {
        let p = parse("a = 1; b = 2; c = 3;").unwrap();
        let mut set = StmtSet::with_capacity(p.len());
        set.insert(p.at_line(3));
        set.insert(p.at_line(1));
        let s = Slice::from_stmts(set);
        assert_eq!(s.lines(&p), vec![1, 3]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(p.at_line(1)));
        assert!(!s.contains(p.at_line(2)));
    }

    #[test]
    fn lines_are_lexical_for_builder_programs() {
        use jumpslice_lang::{Expr, ProgramBuilder};
        // `if (c) { x = 1; }`: the builder gives the `if` a larger id than
        // its branch statement, which precedes it in id order.
        let mut b = ProgramBuilder::new();
        b.read("c");
        let c = b.var("c");
        let iff = b.if_then(c, |b| {
            b.assign("x", Expr::num(1));
        });
        let p = b.build().unwrap();
        let (read, assign) = (p.at_line(1), p.at_line(3));
        assert!(assign < iff, "the branch statement's id precedes the if's");
        let s = Slice::from_stmts([read, iff, assign].into_iter().collect());
        let by_id: Vec<usize> = s.stmts.iter().map(|t| p.line_of(t)).collect();
        assert_eq!(by_id, vec![1, 3, 2], "id order is not lexical");
        assert_eq!(s.lines(&p), vec![1, 2, 3]);
    }

    #[test]
    fn subset_relation() {
        let p = parse("a = 1; b = 2;").unwrap();
        let small = Slice::from_stmts([p.at_line(1)].into_iter().collect());
        let big = Slice::from_stmts([p.at_line(1), p.at_line(2)].into_iter().collect());
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
    }

    #[test]
    fn render_skips_excluded() {
        let p = parse("a = 1; b = 2;").unwrap();
        let s = Slice::from_stmts([p.at_line(2)].into_iter().collect());
        let text = s.render(&p);
        assert!(text.contains("b = 2;"));
        assert!(!text.contains("a = 1;"));
    }
}
