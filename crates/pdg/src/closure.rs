//! The demand-driven closure engine over the PDG.
//!
//! Every slicer in the workspace bottoms out in the transitive closure of
//! data ∪ control dependence. This module condenses the dependence graph
//! once — [`condensation`] over Tarjan's components, O(V + E), run on flat
//! `u32` rows read straight off the PDG's data and control lists — and
//! precomputes no closure set. Closures are answered over the component
//! DAG instead:
//!
//! * A **fresh** closure (criterion seeds, chops, forward slices) unions
//!   the seeds' components' full closures. Each is memoized in a
//!   per-component [`OnceLock`] the first time that component seeds one.
//! * A **layered** query onto a dependence-closed slice (Figure 7's
//!   admitted jumps, the sparse kernel's deltas) walks the component DAG
//!   from the seeds, skipping every component already in the slice — a
//!   closed slice already holds its closure — and unioning a memoized
//!   closure where one exists instead of walking below it.
//!
//! The engine belongs to its [`Pdg`] (see [`Pdg::closure_index`]) and
//! travels with it, memos included, through analysis seeds, edit sessions
//! and the daemon's cache. The one in-place PDG edit,
//! [`Pdg::repoint_data_uses`], drops it.
//!
//! # Equivalence contract
//!
//! A fresh closure equals [`Pdg::backward_closure`] /
//! [`Pdg::forward_closure`] exactly. A layered query equals
//! [`Pdg::backward_closure_into`] when the target set is **closed under
//! dependence** — true at every call site (the Figure-7 fixpoint only ever
//! layers admission closures onto a union of closures; see the invariant
//! note in `core/src/agrawal.rs`). The delta form reports the new
//! statements component by component rather than in the direct walk's pop
//! order; the sparse Figure-7 kernel consumes deltas only through set
//! unions and counts, so slices, traversal counts and moved labels are
//! unchanged (`difftest --mode closure` pins this).
//!
//! # Concurrency
//!
//! Queries take `&self`, so batch workers share one engine. A memo's
//! initializer reads other components' memos only through
//! [`OnceLock::get`], never `get_or_init`, so filling one memo never waits
//! on another and workers filling memos at the same time cannot deadlock.

use crate::Pdg;
use jumpslice_dataflow::StmtSet;
use jumpslice_graph::{condensation, Condensation, Rows};
use jumpslice_lang::StmtId;
use jumpslice_obs as obs;
use std::sync::OnceLock;

/// The condensed dependence graph of one PDG plus its memoized closures.
///
/// Every table is one flat allocation (a [`Rows`]), and each direction's memo
/// slots are allocated on that direction's first query, so the engine adds
/// tens of bytes per component to each PDG it rides on rather than several
/// allocations per component.
#[derive(Clone, Debug)]
pub struct ClosureIndex {
    /// Statement index → component id.
    comp_of: Vec<u32>,
    /// Member statements of each component, ascending.
    members: Rows,
    /// The component DAG: the components each component directly depends
    /// on ...
    succs: Rows,
    /// ... and the components directly depending on it.
    preds: Rows,
    /// Per component, once asked for: the full backward closure.
    backward: OnceLock<Box<[OnceLock<StmtSet>]>>,
    /// Per component, once asked for: the full forward closure.
    forward: OnceLock<Box<[OnceLock<StmtSet>]>>,
}

/// Which way a closure follows the dependence edges.
#[derive(Clone, Copy)]
enum Dir {
    /// Toward what a statement depends on.
    Backward,
    /// Toward what depends on a statement.
    Forward,
}

impl ClosureIndex {
    /// Condenses `pdg`'s dependence graph; no closure is computed yet.
    ///
    /// Emits a [`Phase::ClosureIndexBuild`](obs::Phase::ClosureIndexBuild)
    /// timer and a `closure.condensed.components` count on the caller's
    /// trace sink.
    pub(crate) fn build(pdg: &Pdg) -> ClosureIndex {
        let _t = obs::phase(obs::Phase::ClosureIndexBuild);
        let (data, control) = (pdg.data(), pdg.control());
        let n = control.num_stmts();

        // The dependence graph: statement u → each statement it directly
        // depends on, in `Pdg::deps` order (data, then control not already
        // listed).
        let mut g = Rows::with_capacity(n, data.num_edges() + control.num_edges());
        for u in (0..n).map(StmtId::from_index) {
            let d = data.deps(u);
            let c = control.deps(u).iter().filter(|c| !d.contains(c));
            g.push_row(d.iter().chain(c).map(|s| s.index() as u32));
        }
        let Condensation {
            comp_of,
            members,
            succs,
        } = condensation(&g);
        let k = members.len();
        obs::record(|| obs::Event::Count {
            name: "closure.condensed.components",
            value: k as u64,
        });
        ClosureIndex {
            comp_of,
            preds: succs.transpose(k),
            members,
            succs,
            backward: OnceLock::new(),
            forward: OnceLock::new(),
        }
    }

    /// Number of strongly connected components in the dependence graph.
    pub fn num_components(&self) -> usize {
        self.members.len()
    }

    /// Dense statement-id bound the engine was built for.
    pub fn num_stmts(&self) -> usize {
        self.comp_of.len()
    }

    /// The transitive backward closure of `seeds` — equals
    /// [`Pdg::backward_closure`] exactly. Memoizes each seed component's
    /// closure.
    pub fn backward_closure(&self, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        self.fresh(Dir::Backward, seeds)
    }

    /// The transitive forward closure of `seeds` — equals
    /// [`Pdg::forward_closure`] exactly. Memoizes each seed component's
    /// closure.
    pub fn forward_closure(&self, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        self.fresh(Dir::Forward, seeds)
    }

    /// Adds the backward closures of `seeds` to `slice`, which must be
    /// empty or closed under dependence (see the module docs); it then
    /// equals [`Pdg::backward_closure_into`].
    pub fn backward_closure_into(
        &self,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
    ) {
        self.walk(Dir::Backward, seeds, slice, None);
    }

    /// [`ClosureIndex::backward_closure_into`] additionally appending every
    /// newly inserted statement to `delta` (not cleared).
    pub fn backward_closure_delta(
        &self,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        delta: &mut Vec<StmtId>,
    ) {
        self.walk(Dir::Backward, seeds, slice, Some(delta));
    }

    /// The union of the seeds' memoized closures. A seed already in the
    /// result is skipped: the result is a union of closures, so it holds
    /// that seed's closure too.
    fn fresh(&self, dir: Dir, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        let mut out = StmtSet::with_capacity(self.num_stmts());
        for s in seeds {
            if !out.contains(s) {
                out.union_with(self.memo(dir, self.comp_of[s.index()] as usize));
            }
        }
        out
    }

    /// Component `c`'s full closure in `dir`, computed on first use.
    fn memo(&self, dir: Dir, c: usize) -> &StmtSet {
        self.memos(dir)[c].get_or_init(|| {
            let mut set = StmtSet::with_capacity(self.num_stmts());
            self.walk_from(dir, vec![c], &mut set, None);
            set
        })
    }

    fn memos(&self, dir: Dir) -> &[OnceLock<StmtSet>] {
        let slots = match dir {
            Dir::Backward => &self.backward,
            Dir::Forward => &self.forward,
        };
        slots.get_or_init(|| {
            (0..self.num_components())
                .map(|_| OnceLock::new())
                .collect()
        })
    }

    fn walk(
        &self,
        dir: Dir,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        delta: Option<&mut Vec<StmtId>>,
    ) {
        let work = seeds
            .into_iter()
            .map(|s| self.comp_of[s.index()] as usize)
            .collect();
        self.walk_from(dir, work, slice, delta);
    }

    /// Adds the closures of the components on `work` to the closed set
    /// `slice`. A component with a member in `slice` is skipped: either
    /// `slice` held it closed beforehand, or a memo union or this walk
    /// already added it. Reads memos with `get` only (see the module docs).
    fn walk_from(
        &self,
        dir: Dir,
        mut work: Vec<usize>,
        slice: &mut StmtSet,
        mut delta: Option<&mut Vec<StmtId>>,
    ) {
        let memos = self.memos(dir);
        while let Some(c) = work.pop() {
            let members = self.members.row(c);
            if slice.contains(StmtId::from_index(members[0] as usize)) {
                continue;
            }
            if let Some(closure) = memos[c].get() {
                if let Some(d) = delta.as_deref_mut() {
                    push_new_bits(closure, slice, d);
                }
                slice.union_with(closure);
                continue;
            }
            for &m in members {
                let s = StmtId::from_index(m as usize);
                slice.insert(s);
                if let Some(d) = delta.as_deref_mut() {
                    d.push(s);
                }
            }
            let next = match dir {
                Dir::Backward => self.succs.row(c),
                Dir::Forward => self.preds.row(c),
            };
            work.extend(next.iter().map(|&d| d as usize));
        }
    }
}

/// Appends the statements of `set \ target` to `delta`, ascending.
fn push_new_bits(set: &StmtSet, target: &StmtSet, delta: &mut Vec<StmtId>) {
    let tw = target.words();
    for (w, &bword) in set.words().iter().enumerate() {
        let mut new = bword & !tw.get(w).copied().unwrap_or(0);
        while new != 0 {
            let b = new.trailing_zeros() as usize;
            delta.push(StmtId::from_index(w * 64 + b));
            new &= new - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_cfg::Cfg;
    use jumpslice_lang::parse;

    fn index_of(src: &str) -> (jumpslice_lang::Program, Pdg) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        (p, pdg)
    }

    #[test]
    fn condensed_matches_direct_on_every_seed() {
        let srcs = [
            "read(c); if (c) { x = 1; } else { x = 2; } write(x);",
            "read(c); while (c) { read(c); if (c) break; y = c; } write(y);",
            "sum = 0; L3: if (eof()) goto L14; read(x); sum = sum + x; goto L3; L14: write(sum);",
            "do { read(x); if (x) continue; x = 1; } while (!eof()); write(x);",
        ];
        for src in srcs {
            let (p, pdg) = index_of(src);
            let idx = ClosureIndex::build(&pdg);
            for s in p.stmt_ids() {
                assert_eq!(
                    idx.backward_closure([s]),
                    pdg.backward_closure([s]),
                    "backward at line {} of {src:?}",
                    p.line_of(s)
                );
                assert_eq!(
                    idx.forward_closure([s]),
                    pdg.forward_closure([s]),
                    "forward at line {} of {src:?}",
                    p.line_of(s)
                );
            }
        }
    }

    #[test]
    fn multi_seed_union_matches_direct() {
        let (p, pdg) = index_of("read(a); read(b); x = a; y = b; write(x); write(y);");
        let idx = ClosureIndex::build(&pdg);
        let seeds = [p.at_line(5), p.at_line(6)];
        assert_eq!(idx.backward_closure(seeds), pdg.backward_closure(seeds));
    }

    #[test]
    fn layered_union_onto_a_closed_set_matches_direct() {
        let (p, pdg) = index_of("read(c); while (c) { read(x); y = x; } write(y); write(c);");
        let idx = ClosureIndex::build(&pdg);
        // A dependence-closed base: the closure of write(c).
        let base = pdg.backward_closure([p.at_line(6)]);
        let mut direct = base.clone();
        pdg.backward_closure_into([p.at_line(5)], &mut direct);
        let mut condensed = base.clone();
        idx.backward_closure_into([p.at_line(5)], &mut condensed);
        assert_eq!(condensed, direct);
    }

    #[test]
    fn delta_reports_exactly_the_new_statements() {
        let (p, pdg) = index_of("read(c); while (c) { read(x); y = x; } write(y); write(c);");
        let idx = ClosureIndex::build(&pdg);
        // Walked, then again with the jump's component memoized.
        for memoized in [false, true] {
            if memoized {
                let _ = idx.backward_closure([p.at_line(5)]);
            }
            let mut slice = pdg.backward_closure([p.at_line(6)]);
            let before = slice.clone();
            let mut delta = Vec::new();
            idx.backward_closure_delta([p.at_line(5)], &mut slice, &mut delta);
            assert_eq!(slice, pdg.backward_closure([p.at_line(5), p.at_line(6)]));
            let delta_set: StmtSet = delta.iter().copied().collect();
            assert_eq!(delta_set.len(), delta.len(), "delta duplicate-free");
            for s in p.stmt_ids() {
                assert_eq!(
                    delta_set.contains(s),
                    slice.contains(s) && !before.contains(s),
                    "delta == newly inserted, at line {} (memoized: {memoized})",
                    p.line_of(s)
                );
            }
        }
    }

    #[test]
    fn cyclic_dependences_share_one_component() {
        // The while predicate is control dependent on itself; loop-carried
        // data dependences put the body in a cycle with it.
        let (p, pdg) = index_of("read(n); i = 0; while (i < n) { i = i + 1; } write(i);");
        let idx = ClosureIndex::build(&pdg);
        let (pred, body) = (p.at_line(3), p.at_line(4));
        assert_eq!(idx.comp_of[pred.index()], idx.comp_of[body.index()]);
        assert_eq!(idx.num_components(), p.len() - 1);
        let s = p.at_line(5);
        assert_eq!(idx.backward_closure([s]), pdg.backward_closure([s]));
    }

    #[test]
    fn memos_form_only_for_fresh_seeds_and_layered_walks_reuse_them() {
        let (p, pdg) = index_of("read(c); while (c) { read(x); y = x; } write(y); write(c);");
        let idx = ClosureIndex::build(&pdg);
        let built = |memos: &OnceLock<Box<[OnceLock<StmtSet>]>>| {
            memos
                .get()
                .map_or(0, |m| m.iter().filter(|m| m.get().is_some()).count())
        };
        assert_eq!(
            built(&idx.backward) + built(&idx.forward),
            0,
            "build computes no closure"
        );

        // A layered walk onto a closed set memoizes nothing.
        let mut layered = pdg.backward_closure([p.at_line(6)]);
        idx.backward_closure_into([p.at_line(5)], &mut layered);
        assert_eq!(built(&idx.backward), 0);

        // A fresh closure memoizes exactly its seed's component; a later
        // layered walk that reaches it unions the memo and still agrees.
        let y = p.at_line(4);
        assert_eq!(idx.backward_closure([y]), pdg.backward_closure([y]));
        assert_eq!(built(&idx.backward), 1);
        let mut direct = pdg.backward_closure([p.at_line(6)]);
        pdg.backward_closure_into([p.at_line(5)], &mut direct);
        let mut via_memo = pdg.backward_closure([p.at_line(6)]);
        idx.backward_closure_into([p.at_line(5)], &mut via_memo);
        assert_eq!(via_memo, direct);
        assert_eq!(built(&idx.backward), 1);
    }

    #[test]
    fn concurrent_memo_fills_agree_with_the_direct_walk() {
        let (p, pdg) = index_of(
            "sum = 0; L3: if (eof()) goto L14; read(x); if (x > 0) goto L8; \
             sum = sum + x; goto L3; L8: sum = sum - x; goto L3; L14: write(sum);",
        );
        let idx = ClosureIndex::build(&pdg);
        let ids: Vec<StmtId> = p.stmt_ids().collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (idx, pdg, ids) = (&idx, &pdg, &ids);
                scope.spawn(move || {
                    // Each thread visits the statements in its own order.
                    for &s in ids.iter().cycle().skip(t * 3).take(ids.len()) {
                        assert_eq!(idx.backward_closure([s]), pdg.backward_closure([s]));
                        assert_eq!(idx.forward_closure([s]), pdg.forward_closure([s]));
                    }
                });
            }
        });
    }

    #[test]
    fn build_emits_phase_and_component_count() {
        let (_, pdg) = index_of("read(a); write(a);");
        let (idx, trace) = jumpslice_obs::capture(|| ClosureIndex::build(&pdg));
        let m = jumpslice_obs::Metrics::of(&trace);
        assert_eq!(m.phase_count.get("closure_index_build"), Some(&1));
        assert_eq!(
            m.counts.get("closure.condensed.components"),
            Some(&(idx.num_components() as u64))
        );
    }
}
