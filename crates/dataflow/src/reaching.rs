//! Reaching definitions and the data-dependence edges derived from them.

use crate::BitSet;
use jumpslice_cfg::Cfg;
use jumpslice_graph::NodeId;
use jumpslice_lang::{Name, Program, StmtId};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Dense numbering of the variables a program defines or uses.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    vars: Vec<Name>,
    index: HashMap<Name, usize>,
}

impl VarTable {
    /// Collects every variable defined or used anywhere in `prog`.
    pub fn of(prog: &Program) -> VarTable {
        let mut t = VarTable::default();
        for s in prog.stmt_ids() {
            if let Some(d) = prog.defs(s) {
                t.add(d);
            }
            for u in prog.uses(s) {
                t.add(u);
            }
        }
        t
    }

    fn add(&mut self, n: Name) {
        if !self.index.contains_key(&n) {
            self.index.insert(n, self.vars.len());
            self.vars.push(n);
        }
    }

    /// Number of distinct variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the program mentions no variables at all.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Rebuilds a table from a dense variable list (index `i` maps back to
    /// `vars[i]`) — the snapshot-restore constructor. Duplicates keep their
    /// first index, matching [`VarTable::of`]'s discovery order semantics.
    pub fn from_vars(vars: Vec<Name>) -> VarTable {
        let mut t = VarTable::default();
        for v in vars {
            t.add(v);
        }
        t
    }

    /// Dense index of a variable.
    pub fn index_of(&self, n: Name) -> Option<usize> {
        self.index.get(&n).copied()
    }

    /// Variable at a dense index.
    pub fn var(&self, i: usize) -> Name {
        self.vars[i]
    }
}

/// The classic forward may-analysis: which definition sites reach each node.
///
/// Definition sites are the statements with a def (`x = e;`, `read(x);`),
/// numbered densely in ascending statement-id order.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// Definition sites, in ascending statement-id order.
    def_sites: Vec<StmtId>,
    /// IN set per CFG node, over def-site indices.
    in_sets: Vec<BitSet>,
    vars: VarTable,
    /// Per variable (by [`VarTable`] index): the sites defining it. A
    /// definition of `v` kills exactly `masks[v]`, and the definitions of
    /// `v` reaching a node are its IN set intersected with `masks[v]`.
    masks: Vec<BitSet>,
}

/// The per-variable site masks over `def_sites`. A site that defines no
/// variable of `vars` (possible only in mismatched raw parts) joins no
/// mask.
fn masks_of(prog: &Program, vars: &VarTable, def_sites: &[StmtId]) -> Vec<BitSet> {
    let mut masks = vec![BitSet::new(def_sites.len()); vars.len()];
    for (d, &s) in def_sites.iter().enumerate() {
        if let Some(v) = prog.defs(s).and_then(|v| vars.index_of(v)) {
            masks[v].insert(d);
        }
    }
    masks
}

impl ReachingDefs {
    /// Runs the fixpoint on `prog`'s flowgraph, from empty IN sets.
    ///
    /// Sweeps run in reverse postorder from entry, each visiting only the
    /// nodes a predecessor's OUT change has marked since their last visit
    /// (every node on the first sweep). A skipped node would recompute
    /// exactly its current IN, so the sets and the pass count are those of
    /// the textbook sweep over every node. Only definition nodes store an
    /// OUT set — (IN minus the variable's mask) plus the site itself;
    /// elsewhere OUT is IN. Nodes unreachable from entry are never visited
    /// and keep empty sets, so dead definitions cannot leak into reachable
    /// fall-through successors.
    pub fn compute(prog: &Program, cfg: &Cfg) -> ReachingDefs {
        const NONE: u32 = u32::MAX;
        let vars = VarTable::of(prog);
        let mut def_sites = Vec::new();
        // The [`VarTable`] index each site defines.
        let mut var_of_site = Vec::new();
        for s in prog.stmt_ids() {
            if let Some(v) = prog.defs(s) {
                def_sites.push(s);
                var_of_site.push(vars.index_of(v).expect("collected"));
            }
        }
        let masks = masks_of(prog, &vars, &def_sites);
        let g = cfg.graph();
        let n = g.len();
        let order = jumpslice_graph::reverse_postorder(g, cfg.entry());
        // Node → sweep position (`NONE`: unreachable), and node → its
        // definition site (`NONE`: OUT is IN).
        let mut pos = vec![NONE; n];
        for (k, &node) in order.iter().enumerate() {
            pos[node.index()] = k as u32;
        }
        let mut site_at = vec![NONE; n];
        for (d, &s) in def_sites.iter().enumerate() {
            site_at[cfg.node(s).index()] = d as u32;
        }
        let mut in_sets = vec![BitSet::new(def_sites.len()); n];
        let mut outs: Vec<BitSet> = def_sites
            .iter()
            .enumerate()
            .map(|(d, &s)| {
                let mut out = BitSet::new(def_sites.len());
                if pos[cfg.node(s).index()] != NONE {
                    out.insert(d);
                }
                out
            })
            .collect();

        let mut dirty = vec![true; order.len()];
        let mut scratch = BitSet::new(def_sites.len());
        let mut passes = 0u64;
        loop {
            passes += 1;
            let mut changed = false;
            let mut pending = false;
            for (k, &node) in order.iter().enumerate() {
                if !std::mem::take(&mut dirty[k]) {
                    continue;
                }
                let i = node.index();
                scratch.clear();
                for &p in g.preds(node) {
                    let p = p.index();
                    scratch.union_with(match site_at[p] {
                        NONE => &in_sets[p],
                        d => &outs[d as usize],
                    });
                }
                if scratch == in_sets[i] {
                    continue;
                }
                std::mem::swap(&mut scratch, &mut in_sets[i]);
                changed = true;
                let out_changed = match site_at[i] {
                    NONE => true,
                    d => {
                        let d = d as usize;
                        outs[d].replace_outside(&in_sets[i], &masks[var_of_site[d]])
                    }
                };
                if out_changed {
                    for &s in g.succs(node) {
                        let ks = pos[s.index()] as usize;
                        dirty[ks] = true;
                        pending |= ks <= k;
                    }
                }
            }
            if !pending {
                // The textbook sweep ends with one pass that changes
                // nothing; count it.
                passes += u64::from(changed);
                break;
            }
        }

        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "reaching.fixpoint_passes",
            value: passes,
        });
        ReachingDefs {
            def_sites,
            in_sets,
            vars,
            masks,
        }
    }

    /// The variable table used by this analysis.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// The definition sites, ascending — bit `i` of every IN set
    /// refers to `def_sites()[i]`.
    pub fn def_sites(&self) -> &[StmtId] {
        &self.def_sites
    }

    /// The IN set of every flowgraph node, indexed by node.
    pub fn in_sets(&self) -> &[BitSet] {
        &self.in_sets
    }

    /// Reassembles a solution from its raw parts — the snapshot-restore
    /// constructor, inverse of [`ReachingDefs::def_sites`] /
    /// [`ReachingDefs::in_sets`] / [`ReachingDefs::vars`]; the
    /// per-variable site masks are derived from `prog`. The caller is
    /// responsible for the parts describing `prog`, the program the
    /// solution was computed for; slicing through a mismatched solution is
    /// undefined (but memory-safe — all downstream access is
    /// bounds-checked).
    pub fn from_parts(
        prog: &Program,
        def_sites: Vec<StmtId>,
        in_sets: Vec<BitSet>,
        vars: VarTable,
    ) -> ReachingDefs {
        let masks = masks_of(prog, &vars, &def_sites);
        ReachingDefs {
            def_sites,
            in_sets,
            vars,
            masks,
        }
    }

    /// The definition statements reaching the *entry* of `node`.
    pub fn reaching_in(&self, node: NodeId) -> impl Iterator<Item = StmtId> + '_ {
        self.in_sets[node.index()].iter().map(|i| self.def_sites[i])
    }

    /// The definitions of any of `vars` reaching the entry of `node`, in
    /// def-site order (ascending statement id), without duplicates. Reads
    /// the IN set a word at a time against the variables' site masks;
    /// variables the program never defines match nothing.
    pub fn reaching_defs_of(&self, node: NodeId, vars: &[Name]) -> Vec<StmtId> {
        let masks: Vec<&[u64]> = vars
            .iter()
            .filter_map(|&v| self.vars.index_of(v))
            .map(|v| self.masks[v].words())
            .collect();
        let mut out = Vec::new();
        if masks.is_empty() {
            return out;
        }
        for (w, &word) in self.in_sets[node.index()].words().iter().enumerate() {
            let mut hits = word
                & masks
                    .iter()
                    .fold(0, |acc, m| acc | m.get(w).copied().unwrap_or(0));
            while hits != 0 {
                out.push(self.def_sites[w * 64 + hits.trailing_zeros() as usize]);
                hits &= hits - 1;
            }
        }
        out
    }
}

/// Data-dependence edges: `u` depends on `d` when a definition at `d`
/// reaches a use of the same variable at `u`.
///
/// Only the forward lists are built eagerly. Slicing walks dependences
/// backwards from a criterion, so the inverse index serves forward
/// closures alone; it is derived on the first [`DataDeps::dependents`]
/// call and kept from then on.
#[derive(Clone, Debug)]
pub struct DataDeps {
    /// For each statement, the definition statements it depends on (sorted).
    deps: Vec<Vec<StmtId>>,
    /// Reverse direction: statements depending on each statement (sorted),
    /// built on first use.
    dependents: OnceLock<Vec<Vec<StmtId>>>,
}

impl DataDeps {
    /// Computes data dependence from reaching definitions over the
    /// (unaugmented) flowgraph — the paper is explicit that data dependence
    /// always comes from the standard flowgraph.
    pub fn compute(prog: &Program, cfg: &Cfg) -> DataDeps {
        let rd = ReachingDefs::compute(prog, cfg);
        Self::from_reaching(prog, cfg, &rd)
    }

    /// Derives the edges from a precomputed [`ReachingDefs`].
    pub fn from_reaching(prog: &Program, cfg: &Cfg, rd: &ReachingDefs) -> DataDeps {
        Self::from_deps(prog.stmt_ids().map(|u| deps_of(prog, cfg, rd, u)).collect())
    }

    /// Rebuilds the edge set from the forward direction — the
    /// snapshot-restore constructor. `deps[i]` lists the definitions
    /// statement `i` depends on; lists are sorted and deduplicated here, so
    /// wire forms need not be trusted. Our own wire forms always arrive
    /// strictly sorted, so the sort is guarded by a single ordering scan —
    /// restore pays for it only on hostile bytes.
    ///
    /// # Panics
    ///
    /// Panics if a listed definition is not a statement index, that is,
    /// not below `deps.len()`.
    pub fn from_deps(mut deps: Vec<Vec<StmtId>>) -> DataDeps {
        let n = deps.len();
        for v in deps.iter_mut() {
            if !v.windows(2).all(|w| w[0] < w[1]) {
                v.sort();
                v.dedup();
            }
            if let Some(last) = v.last() {
                assert!(last.index() < n, "dependence on {last:?} of {n} statements");
            }
        }
        DataDeps {
            deps,
            dependents: OnceLock::new(),
        }
    }

    /// The definitions statement `s` depends on.
    pub fn deps(&self, s: StmtId) -> &[StmtId] {
        &self.deps[s.index()]
    }

    /// The statements that depend on `s`. The first call builds the
    /// inverse of every forward list, in time linear in the edges.
    pub fn dependents(&self, s: StmtId) -> &[StmtId] {
        &self.dependents.get_or_init(|| transpose(&self.deps))[s.index()]
    }

    /// All edges as `(def, use)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (StmtId, StmtId)> + '_ {
        self.deps
            .iter()
            .enumerate()
            .flat_map(|(u, ds)| ds.iter().map(move |&d| (d, StmtId::from_index(u))))
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Recomputes the *incoming* edges of `u` from `rd` and replaces the
    /// stored ones. An inverse index already built is fixed in place (only
    /// the lists of `u`'s old and new definitions change, so no full
    /// rebuild); one not yet built stays unbuilt. This is the
    /// data-dependence patch for an edit that changes only the uses of one
    /// statement (an expression replacement): every other statement's
    /// edges are untouched.
    /// Returns the number of edges now pointing into `u`.
    pub fn repoint_uses(
        &mut self,
        prog: &Program,
        cfg: &Cfg,
        rd: &ReachingDefs,
        u: StmtId,
    ) -> usize {
        let new_deps = deps_of(prog, cfg, rd, u);
        if let Some(dependents) = self.dependents.get_mut() {
            for &d in &self.deps[u.index()] {
                dependents[d.index()].retain(|&x| x != u);
            }
            for &d in &new_deps {
                let inv = &mut dependents[d.index()];
                if let Err(at) = inv.binary_search(&u) {
                    inv.insert(at, u);
                }
            }
        }
        let n = new_deps.len();
        self.deps[u.index()] = new_deps;
        n
    }
}

/// The inverse of the forward lists `deps`. Filling in ascending `u` over
/// deduplicated forward lists leaves every reverse list strictly sorted —
/// no post-pass needed.
fn transpose(deps: &[Vec<StmtId>]) -> Vec<Vec<StmtId>> {
    let mut counts = vec![0usize; deps.len()];
    for d in deps.iter().flatten() {
        counts[d.index()] += 1;
    }
    let mut dependents: Vec<Vec<StmtId>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (u, ds) in deps.iter().enumerate() {
        for &d in ds {
            dependents[d.index()].push(StmtId::from_index(u));
        }
    }
    dependents
}

/// The definitions statement `u` depends on under `rd`: every reaching
/// definition of a variable `u` uses, sorted and deduplicated. The one
/// place reaching definitions turn into data-dependence edges.
fn deps_of(prog: &Program, cfg: &Cfg, rd: &ReachingDefs, u: StmtId) -> Vec<StmtId> {
    let used = prog.uses(u);
    if used.is_empty() {
        return Vec::new();
    }
    let mut deps = rd.reaching_defs_of(cfg.node(u), &used);
    // Computed def sites ascend; restored ones are not trusted to.
    if !deps.windows(2).all(|w| w[0] < w[1]) {
        deps.sort();
        deps.dedup();
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    fn deps_of(src: &str, line: usize) -> Vec<usize> {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let dd = DataDeps::compute(&p, &cfg);
        dd.deps(p.at_line(line))
            .iter()
            .map(|&s| p.line_of(s))
            .collect()
    }

    #[test]
    fn straight_line_chain() {
        assert_eq!(deps_of("x = 1; y = x; write(y);", 3), vec![2]);
        assert_eq!(deps_of("x = 1; y = x; write(y);", 2), vec![1]);
    }

    #[test]
    fn redefinition_kills() {
        // write(x) sees only the second definition.
        assert_eq!(deps_of("x = 1; x = 2; write(x);", 3), vec![2]);
    }

    #[test]
    fn both_branches_reach() {
        let src = "read(c); if (c) { x = 1; } else { x = 2; } write(x);";
        assert_eq!(deps_of(src, 5), vec![3, 4]);
    }

    #[test]
    fn loop_carried_dependence() {
        let src = "x = 0; while (x < 3) { x = x + 1; } write(x);";
        // The loop body's use of x sees the initial def and itself.
        assert_eq!(deps_of(src, 3), vec![1, 3]);
        assert_eq!(deps_of(src, 4), vec![1, 3]);
    }

    #[test]
    fn read_redefines() {
        let src = "x = 1; read(x); write(x);";
        assert_eq!(deps_of(src, 3), vec![2]);
    }

    #[test]
    fn predicate_uses_count() {
        let src = "read(x); if (x > 0) { y = 1; } write(y);";
        assert_eq!(deps_of(src, 2), vec![1]);
    }

    #[test]
    fn paper_figure_2b_data_dependence() {
        // Figure 1-a / 2-b: write(positives) on line 12 is data dependent on
        // lines 2 and 7.
        let src = "sum = 0;
                   positives = 0;
                   while (!eof()) {
                     read(x);
                     if (x <= 0)
                       sum = sum + f1(x);
                     else {
                       positives = positives + 1;
                       if (x % 2 == 0)
                         sum = sum + f2(x);
                       else
                         sum = sum + f3(x);
                     }
                   }
                   write(sum);
                   write(positives);";
        assert_eq!(deps_of(src, 12), vec![2, 7]);
        // And positives = positives + 1 (line 7) sees lines 2 and 7.
        assert_eq!(deps_of(src, 7), vec![2, 7]);
        // write(sum) sees every sum definition.
        assert_eq!(deps_of(src, 11), vec![1, 6, 9, 10]);
    }

    #[test]
    fn goto_paths_carry_defs() {
        let src = "x = 1; goto L; x = 2; L: write(x);";
        // x = 2 is unreachable: only the first def reaches the write.
        assert_eq!(deps_of(src, 4), vec![1]);
    }

    #[test]
    fn dependents_is_inverse() {
        let p = parse("x = 1; y = x; z = x + y;").unwrap();
        let cfg = Cfg::build(&p);
        let dd = DataDeps::compute(&p, &cfg);
        let x = p.at_line(1);
        let dep_lines: Vec<usize> = dd.dependents(x).iter().map(|&s| p.line_of(s)).collect();
        assert_eq!(dep_lines, vec![2, 3]);
        for (d, u) in dd.edges() {
            assert!(dd.deps(u).contains(&d));
            assert!(dd.dependents(d).contains(&u));
        }
        assert_eq!(dd.num_edges(), 3);
    }

    /// The inverse index the slow way: every forward edge `(d, u)`, listed
    /// under `d` in ascending `u`.
    fn eager_transpose(dd: &DataDeps, n: usize) -> Vec<Vec<StmtId>> {
        let mut inv = vec![Vec::new(); n];
        for u in (0..n).map(StmtId::from_index) {
            for &d in dd.deps(u) {
                inv[d.index()].push(u);
            }
        }
        inv
    }

    fn assert_dependents_transpose(dd: &DataDeps, n: usize, what: &str) {
        for (d, want) in eager_transpose(dd, n).iter().enumerate() {
            let d = StmtId::from_index(d);
            assert_eq!(dd.dependents(d), &want[..], "{what}: dependents of {d:?}");
        }
    }

    /// The lazily built inverse equals the eager transpose of the forward
    /// lists whichever way the edges were made: computed, restored, or
    /// repointed after an expression edit with or without the inverse
    /// built first. Two threads forcing it at once see the same lists.
    #[test]
    fn lazy_dependents_equal_the_eager_transpose() {
        use jumpslice_incr::{apply_edit, random_edit, Edit};
        use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
        let mut programs: Vec<Program> = jumpslice_core::corpus::all()
            .into_iter()
            .map(|(_, p, _)| p)
            .collect();
        for seed in 0..3 {
            let cfg = GenConfig::sized(seed, 120);
            programs.push(gen_structured(&cfg));
            programs.push(gen_unstructured(&cfg.with_jump_density(0.25)));
        }
        let mut rng = jumpslice_testkit::Rng::seed_from_u64(11);
        let mut repointed = 0;
        for prog in &programs {
            let n = prog.len();
            let cfg = Cfg::build(prog);
            let rd = ReachingDefs::compute(prog, &cfg);
            let dd = DataDeps::from_reaching(prog, &cfg, &rd);
            let restored =
                DataDeps::from_deps(prog.stmt_ids().map(|s| dd.deps(s).to_vec()).collect());
            let (a, b) = std::thread::scope(|scope| {
                let force = || {
                    prog.stmt_ids()
                        .map(|s| restored.dependents(s).to_vec())
                        .collect::<Vec<_>>()
                };
                let a = scope.spawn(force);
                let b = scope.spawn(force);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a, b, "two threads forcing the inverse");
            assert_eq!(a, eager_transpose(&dd, n), "from_deps");
            assert_dependents_transpose(&dd, n, "from_reaching");

            for _ in 0..8 {
                let edit = random_edit(&mut rng, prog);
                if !matches!(edit, Edit::ReplaceExpr { .. }) {
                    continue;
                }
                let Ok(applied) = apply_edit(prog, &edit) else {
                    continue;
                };
                let (Some(u), true) = (applied.touched, applied.map.is_identity()) else {
                    continue;
                };
                let new = &applied.prog;
                let new_cfg = Cfg::build(new);
                let rd = ReachingDefs::compute(new, &new_cfg);
                let fresh = DataDeps::from_reaching(new, &new_cfg, &rd);
                for built_first in [false, true] {
                    let mut dd =
                        DataDeps::from_deps(prog.stmt_ids().map(|s| dd.deps(s).to_vec()).collect());
                    if built_first {
                        dd.dependents(u);
                    }
                    dd.repoint_uses(new, &new_cfg, &rd, u);
                    assert_dependents_transpose(&dd, n, "repoint_uses");
                    for s in new.stmt_ids() {
                        assert_eq!(dd.deps(s), fresh.deps(s), "repointed deps of {s:?}");
                        assert_eq!(dd.dependents(s), fresh.dependents(s));
                    }
                }
                repointed += 1;
            }
        }
        assert!(repointed >= 10, "{repointed} repointed");
    }

    #[test]
    fn var_table_counts() {
        let p = parse("x = 1; y = x + z;").unwrap();
        let vt = VarTable::of(&p);
        assert_eq!(vt.len(), 3); // x, y, z
        assert!(!vt.is_empty());
        let x = p.name("x").unwrap();
        assert_eq!(vt.var(vt.index_of(x).unwrap()), x);
    }

    #[test]
    fn repoint_uses_patches_both_directions() {
        // Rewriting `write(y)` to read x instead of y.
        let before = parse("x = 1; y = 2; write(y);").unwrap();
        let after = parse("x = 1; y = 2; write(x);").unwrap();
        let cfg = Cfg::build(&after);
        let rd = ReachingDefs::compute(&after, &cfg);
        // Start from the stale edges of the *old* expression.
        let mut dd = DataDeps::compute(&before, &Cfg::build(&before));
        let w = after.at_line(3);
        let n = dd.repoint_uses(&after, &cfg, &rd, w);
        assert_eq!(n, 1);
        let fresh = DataDeps::from_reaching(&after, &cfg, &rd);
        for s in after.stmt_ids() {
            assert_eq!(dd.deps(s), fresh.deps(s), "deps of {s:?}");
            assert_eq!(dd.dependents(s), fresh.dependents(s), "dependents of {s:?}");
        }
    }

    #[test]
    fn raw_part_constructors_round_trip() {
        let p = parse("x = 1; y = x; while (y < 9) { y = y + x; } write(y);").unwrap();
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        let rebuilt = ReachingDefs::from_parts(
            &p,
            rd.def_sites().to_vec(),
            rd.in_sets().to_vec(),
            VarTable::from_vars((0..rd.vars().len()).map(|i| rd.vars().var(i)).collect()),
        );
        for node in (0..cfg.graph().len()).map(jumpslice_graph::NodeId::new) {
            assert_eq!(
                rd.reaching_in(node).collect::<Vec<_>>(),
                rebuilt.reaching_in(node).collect::<Vec<_>>(),
                "node {node:?}"
            );
        }
        assert_eq!(rd.vars().len(), rebuilt.vars().len());

        let dd = DataDeps::from_reaching(&p, &cfg, &rd);
        let fwd_only: Vec<Vec<StmtId>> = p.stmt_ids().map(|s| dd.deps(s).to_vec()).collect();
        let back = DataDeps::from_deps(fwd_only);
        for s in p.stmt_ids() {
            assert_eq!(dd.deps(s), back.deps(s), "deps of {s:?}");
            assert_eq!(dd.dependents(s), back.dependents(s), "dependents of {s:?}");
        }
    }

    /// The textbook dense solve [`ReachingDefs::compute`] must reproduce
    /// bit for bit: per-node gen and kill sets derived from the program
    /// alone, every reachable node revisited on every pass with fresh sets.
    /// Returns the IN sets and the pass count.
    fn dense_solve(prog: &Program, cfg: &Cfg) -> (Vec<BitSet>, u64) {
        let def_sites: Vec<StmtId> = prog
            .stmt_ids()
            .filter(|&s| prog.defs(s).is_some())
            .collect();
        let n = cfg.graph().len();
        let nsites = def_sites.len();
        let mut gen = vec![BitSet::new(nsites); n];
        let mut kill = vec![BitSet::new(nsites); n];
        for (d, &s) in def_sites.iter().enumerate() {
            let node = cfg.node(s).index();
            gen[node].insert(d);
            for (e, &t) in def_sites.iter().enumerate() {
                if e != d && prog.defs(t) == prog.defs(s) {
                    kill[node].insert(e);
                }
            }
        }
        let order = jumpslice_graph::reverse_postorder(cfg.graph(), cfg.entry());
        let mut in_sets = vec![BitSet::new(nsites); n];
        let mut out_sets = vec![BitSet::new(nsites); n];
        for &node in &order {
            out_sets[node.index()] = gen[node.index()].clone();
        }
        let (mut changed, mut passes) = (true, 0);
        while changed {
            changed = false;
            passes += 1;
            for &node in &order {
                let i = node.index();
                let mut new_in = BitSet::new(nsites);
                for &p in cfg.graph().preds(node) {
                    new_in.union_with(&out_sets[p.index()]);
                }
                let mut new_out = new_in.clone();
                new_out.subtract(&kill[i]);
                new_out.union_with(&gen[i]);
                if new_in != in_sets[i] || new_out != out_sets[i] {
                    in_sets[i] = new_in;
                    out_sets[i] = new_out;
                    changed = true;
                }
            }
        }
        (in_sets, passes)
    }

    /// The data-dependence scan the masked read replaced: every reaching
    /// definition, filtered by the variables `u` uses.
    fn scan_all_deps(prog: &Program, cfg: &Cfg, rd: &ReachingDefs, u: StmtId) -> Vec<StmtId> {
        let used = prog.uses(u);
        let mut deps: Vec<StmtId> = rd
            .reaching_in(cfg.node(u))
            .filter(|&d| used.contains(&prog.defs(d).expect("def site")))
            .collect();
        deps.sort();
        deps.dedup();
        deps
    }

    /// Solves with the production sweep and the dense oracle and asserts
    /// identical IN sets, pass counts and data dependences.
    fn assert_solves_like_dense(prog: &Program, cfg: &Cfg) {
        let (want_in, want_passes) = dense_solve(prog, cfg);
        let (rd, trace) = jumpslice_obs::capture(|| ReachingDefs::compute(prog, cfg));
        let passes = jumpslice_obs::Metrics::of(&trace).counts["reaching.fixpoint_passes"];
        assert_eq!(rd.in_sets(), &want_in[..], "IN sets");
        assert_eq!(passes, want_passes, "pass count");
        let dd = DataDeps::from_reaching(prog, cfg, &rd);
        for u in prog.stmt_ids() {
            assert_eq!(
                dd.deps(u),
                scan_all_deps(prog, cfg, &rd, u),
                "deps of {u:?}"
            );
        }
    }

    /// Programs whose flowgraphs have self-loops, which the generators
    /// never draw: a conditional goto to its own label after definitions
    /// and inside loops, and empty loop bodies; then generated programs
    /// with such self-loops spliced in between statements.
    fn self_loop_programs() -> Vec<Program> {
        use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
        let mut out: Vec<Program> = [
            "read(x); x = x - 1; L: if (x > 0) goto L; write(x);",
            "read(n); s = 0; i = 0;
             while (i < n) { i = i + 1; M: if (i > s) goto M; s = s + i; }
             write(s);",
            "read(x); y = 0; do { y = y + x; K: if (y < x) goto K; x = x - 1; } while (x > 0); write(y);",
            "read(x); while (x > 0) {} do {} while (x < 0); y = x; write(y);",
            "read(x); A: if (x > 0) goto A; x = 1; B: if (x > 1) goto B; write(x);",
        ]
        .iter()
        .map(|src| parse(src).unwrap())
        .collect();
        let mut rng = jumpslice_testkit::Rng::seed_from_u64(3);
        for seed in 0..4 {
            let cfg = GenConfig::sized(seed, 120);
            for p in [
                gen_structured(&cfg),
                gen_unstructured(&cfg.with_jump_density(0.25)),
            ] {
                let mut text = String::new();
                for (k, line) in jumpslice_lang::print_program(&p).lines().enumerate() {
                    let t = line.trim_start();
                    let between = !["}", "case", "default"].iter().any(|w| t.starts_with(w));
                    if between && rng.gen_bool(0.1) {
                        text.push_str(&format!("S{k}: if (v0 > {k}) goto S{k};\n"));
                    }
                    text.push_str(line);
                    text.push('\n');
                }
                out.push(parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}")));
            }
        }
        for p in &out {
            let g = Cfg::build(p);
            let g = g.graph();
            assert!(
                g.nodes().any(|v| g.succs(v).contains(&v)),
                "no self-loop in {p:?}"
            );
        }
        out
    }

    /// The masked sweep against the dense oracle on every corpus program,
    /// on progen structured and unstructured programs, and on programs
    /// with self-loops.
    #[test]
    fn sweep_matches_the_dense_oracle() {
        use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
        let mut programs: Vec<Program> = jumpslice_core::corpus::all()
            .into_iter()
            .map(|(_, p, _)| p)
            .collect();
        for seed in 0..4 {
            for size in [60, 250] {
                let cfg = GenConfig::sized(seed, size);
                programs.push(gen_structured(&cfg));
                programs.push(gen_unstructured(&cfg.with_jump_density(0.25)));
            }
        }
        programs.extend(self_loop_programs());
        for prog in &programs {
            assert_solves_like_dense(prog, &Cfg::build(prog));
        }
    }

    #[test]
    fn switch_fallthrough_reaches() {
        let src = "read(c); switch (c) { case 1: x = 1; case 2: y = x; break; } write(y);";
        // y = x (line 4) must see x = 1 via fall-through.
        assert_eq!(deps_of(src, 4), vec![3]);
    }
}
