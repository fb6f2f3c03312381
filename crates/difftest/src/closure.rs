//! The closure-engine differential mode (`difftest --mode closure`).
//!
//! `jumpslice_core::Analysis` answers every dependence closure through the
//! PDG's demand-driven closure engine, whose work depends on which
//! per-component memos happen to exist. This mode holds the engine against
//! two oracles that never touch it:
//!
//! * the raw PDG walk: `Pdg::backward_closure` / `forward_closure` for
//!   fresh closures and chops, and `Pdg::backward_closure_into` onto the
//!   same dependence-closed slice for layered queries (the calls Figure 7
//!   makes for admitted jumps, deltas included);
//! * the traced recorder behind `agrawal_slice_traced`, which runs Figure 7
//!   walking PDG edges itself: its slice must equal `agrawal_slice`'s, and
//!   every witness chain must end at a root.
//!
//! Each program is checked in three memo states: a fresh analysis with no
//! memos, an analysis whose memos were filled in reverse order (every other
//! statement's closures, then the criteria's slices),
//! and — in the edit sweep — a [`jumpslice_incr::EditSession`] that sliced
//! before each edit, so the engine and its memos ride the seed into the
//! edit (a stale engine surviving an edit would surface here). Every
//! registered slicer and executable chop must also agree across the memo
//! states. Mismatches are minimized like the incremental mode's: greedy
//! edit drops, then the shared statement shrinker.

use crate::harness::{pick_criteria, DiffConfig, Family};
use crate::shrink::{is_valid_candidate, shrink};
use crate::ALGOS;
use jumpslice_core::{
    agrawal_slice, agrawal_slice_traced, chop, chop_executable, Analysis, BatchSlicer, Criterion,
    Slice, Why,
};
use jumpslice_incr::{random_edit, Edit, EditSession};
use jumpslice_lang::{print_program, Program, StmtId};
use jumpslice_testkit::Rng;

/// Knobs for one closure-engine differential session.
#[derive(Clone, Debug)]
pub struct ClosureConfig {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of seeds; each seed drives one program per family.
    pub seeds: u64,
    /// Families to sweep; `None` means all three.
    pub family: Option<Family>,
    /// Approximate statements per generated program.
    pub target_stmts: usize,
    /// Goto density for the unstructured family.
    pub jump_density: f64,
    /// Maximum criteria compared per program state.
    pub max_criteria: usize,
    /// Edits attempted per seed's edit sweep (rejected edits count).
    pub edits_per_script: usize,
    /// Whether to minimize failing programs/scripts before reporting.
    pub shrink: bool,
    /// Stop after this many findings.
    pub max_findings: usize,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            start_seed: 0,
            // 100 seeds × 3 families = 300 programs per default run.
            seeds: 100,
            family: None,
            target_stmts: 30,
            jump_density: 0.3,
            max_criteria: 4,
            edits_per_script: 4,
            shrink: true,
            max_findings: 4,
        }
    }
}

impl ClosureConfig {
    /// The fixed-seed smoke configuration CI runs.
    pub fn smoke() -> ClosureConfig {
        ClosureConfig {
            seeds: 12,
            target_stmts: 25,
            ..ClosureConfig::default()
        }
    }

    fn families(&self) -> Vec<Family> {
        match self.family {
            Some(f) => vec![f],
            None => Family::ALL.to_vec(),
        }
    }

    /// Generation knobs repackaged for [`Family::generate`].
    fn gen_cfg(&self) -> DiffConfig {
        DiffConfig {
            target_stmts: self.target_stmts,
            jump_density: self.jump_density,
            ..DiffConfig::default()
        }
    }
}

/// One engine-vs-oracle violation, minimized when enabled.
#[derive(Clone, Debug)]
pub struct ClosureFinding {
    /// Seed of the generating draw.
    pub seed: u64,
    /// Family of the generating draw.
    pub family: Family,
    /// Human-readable failure description from the (shrunk) replay.
    pub detail: String,
    /// The (shrunk) program text.
    pub program: String,
    /// The (shrunk) edit script leading to the mismatching state (empty
    /// for a cold-sweep mismatch).
    pub script: Vec<Edit>,
}

/// Aggregate statistics of one closure-engine differential session.
#[derive(Clone, Debug, Default)]
pub struct ClosureReport {
    /// Programs swept (one per seed × family).
    pub programs: usize,
    /// Program states compared: the cold state, the edit session's
    /// starting state, and one per accepted edit.
    pub states: usize,
    /// Edits accepted across all edit sweeps.
    pub edits_applied: usize,
    /// Individual equality checks executed (closure sets, slices, chops,
    /// per-statement provenance).
    pub comparisons: usize,
    /// Confirmed engine-vs-oracle mismatches.
    pub findings: Vec<ClosureFinding>,
}

/// Holds `a`'s closure engine against the raw PDG walk and the traced
/// recorder on the criteria `stmts`. Returns the comparison count or the
/// first mismatch.
fn check_engine(p: &Program, a: &Analysis<'_>, stmts: &[StmtId]) -> Result<usize, String> {
    let pdg = a.pdg();
    let mut comparisons = 0;

    // Fresh closures, statement by statement.
    for &c in stmts {
        let line = p.line_of(c);
        comparisons += 2;
        if a.backward_closure([c]) != pdg.backward_closure([c]) {
            return Err(format!(
                "backward closure at line {line}: engine ≠ PDG walk"
            ));
        }
        if a.forward_closure([c]) != pdg.forward_closure([c]) {
            return Err(format!("forward closure at line {line}: engine ≠ PDG walk"));
        }
    }

    // Layered queries: every live unconditional jump onto every criterion's
    // (dependence-closed) closure, with the delta the sparse kernel reads.
    let jumps = a.jumps_in_pdom_preorder();
    for &c in stmts {
        let base = pdg.backward_closure([c]);
        for &j in jumps.iter().filter(|&&j| !base.contains(j)) {
            let at = format!("jump line {} onto line {}", p.line_of(j), p.line_of(c));
            let mut want = base.clone();
            pdg.backward_closure_into([j], &mut want);
            let mut got = base.clone();
            let mut delta = Vec::new();
            a.closure_index()
                .backward_closure_delta([j], &mut got, &mut delta);
            comparisons += 2;
            if got != want {
                return Err(format!("layered closure of {at}: engine ≠ PDG walk"));
            }
            delta.sort_unstable();
            if !delta
                .iter()
                .copied()
                .eq(want.iter().filter(|&s| !base.contains(s)))
            {
                return Err(format!(
                    "layered delta of {at}: not exactly the new statements"
                ));
            }
        }
    }

    // Chops between consecutive criteria.
    for w in stmts.windows(2) {
        let (src, sink) = (w[0], w[1]);
        comparisons += 1;
        let want = pdg
            .forward_closure([src])
            .intersection(&pdg.backward_closure([sink]));
        if chop(a, src, sink).stmts != want {
            return Err(format!(
                "chop lines {}→{}: engine ≠ PDG walk",
                p.line_of(src),
                p.line_of(sink)
            ));
        }
    }

    // Figure 7 through the engine vs the recorder's own PDG walk.
    for &c in stmts {
        let line = p.line_of(c);
        let crit = Criterion::at_stmt(c);
        let (traced, prov) = agrawal_slice_traced(a, &crit);
        comparisons += 1;
        if agrawal_slice(a, &crit) != traced {
            return Err(format!("criterion line {line}: figure 7 ≠ traced figure 7"));
        }
        for s in traced.stmts.iter() {
            comparisons += 1;
            let chain = prov.chain(s).ok_or_else(|| {
                format!(
                    "criterion line {line}: sliced line {} has no witness chain",
                    p.line_of(s)
                )
            })?;
            let (_, root) = chain.last().expect("chains are non-empty");
            if !matches!(root, Why::Criterion | Why::SeedDef | Why::Jump { .. }) {
                return Err(format!(
                    "criterion line {line}: chain for line {} ends at non-root {root:?}",
                    p.line_of(s)
                ));
            }
        }
    }

    Ok(comparisons)
}

/// Every registered slicer's answers (`None` for a deterministic panic)
/// plus the executable chops between consecutive criteria.
type Answers = (Vec<Option<Vec<Slice>>>, Vec<Slice>);

/// Computes [`Answers`] on `a`, through the sequential batch engine so a
/// slicer panic is a value, not a crash.
fn answers(a: &Analysis<'_>, stmts: &[StmtId]) -> Answers {
    let criteria: Vec<Criterion> = stmts.iter().copied().map(Criterion::at_stmt).collect();
    let batch = BatchSlicer::new(a).with_threads(1);
    let slices = ALGOS
        .iter()
        .map(|algo| batch.try_slice_all(algo.f, &criteria).ok())
        .collect();
    let chops = stmts
        .windows(2)
        .map(|w| chop_executable(a, w[0], w[1]))
        .collect();
    (slices, chops)
}

/// Compares two memo states' [`Answers`]; returns the comparison count or
/// the first difference.
fn compare_answers(
    p: &Program,
    stmts: &[StmtId],
    (want, want_chops): &Answers,
    (got, got_chops): &Answers,
    state: &str,
) -> Result<usize, String> {
    let mut comparisons = 0;
    for ((algo, w), g) in ALGOS.iter().zip(want).zip(got) {
        match (w, g) {
            (Some(w), Some(g)) => {
                for ((ws, gs), &c) in w.iter().zip(g).zip(stmts) {
                    comparisons += 1;
                    if ws != gs {
                        return Err(format!(
                            "{} at line {}: {state} {} stmts vs fresh {} stmts \
                             (traversals {} vs {})",
                            algo.name,
                            p.line_of(c),
                            gs.len(),
                            ws.len(),
                            gs.traversals,
                            ws.traversals
                        ));
                    }
                }
            }
            // A deterministic panic in both states is the projection
            // fuzzer's finding, not an engine bug.
            (None, None) => {}
            _ => {
                return Err(format!(
                    "{}: panics in only one of {state} and fresh",
                    algo.name
                ))
            }
        }
    }
    for ((w, g), pair) in want_chops.iter().zip(got_chops).zip(stmts.windows(2)) {
        comparisons += 1;
        if w != g {
            return Err(format!(
                "executable chop lines {}→{}: {state} ≠ fresh",
                p.line_of(pair[0]),
                p.line_of(pair[1])
            ));
        }
    }
    Ok(comparisons)
}

/// The cold sweep: a fresh analysis of `p` and one whose memos were filled
/// beforehand in reverse order, each against the oracles and each other.
fn cold_sweep(p: &Program, max_criteria: usize) -> Result<usize, String> {
    let fresh = Analysis::new(p);
    let stmts = pick_criteria(p, &fresh, max_criteria);
    if stmts.is_empty() {
        return Ok(0);
    }
    let want = answers(&fresh, &stmts);
    // Memos for every other statement, then the criteria's slices, all in
    // reverse order: layered walks on `filled` mix memo unions with walking.
    let filled = Analysis::new(p);
    for s in (0..p.len()).rev().step_by(2).map(StmtId::from_index) {
        let _ = filled.backward_closure([s]);
        let _ = filled.forward_closure([s]);
    }
    for &c in stmts.iter().rev() {
        let _ = agrawal_slice(&filled, &Criterion::at_stmt(c));
    }
    let got = answers(&filled, &stmts);
    Ok(compare_answers(p, &stmts, &want, &got, "memo-filled")?
        + check_engine(p, &fresh, &stmts)?
        + check_engine(p, &filled, &stmts)?)
}

/// One edit-state comparison: the session's analysis — seeded with
/// whatever the edit left of the engine and its memos — against the
/// oracles and a fresh analysis. Slicing here also leaves the engine and
/// its memos in the seed for the next edit.
fn edit_sweep(session: &mut EditSession, max_criteria: usize) -> Result<usize, String> {
    let p = session.prog().clone();
    let fresh = Analysis::new(&p);
    let stmts = pick_criteria(&p, &fresh, max_criteria);
    if stmts.is_empty() {
        return Ok(0);
    }
    let want = answers(&fresh, &stmts);
    session.with_analysis(|a| {
        Ok(check_engine(&p, a, &stmts)?
            + compare_answers(&p, &stmts, &want, &answers(a, &stmts), "session")?)
    })
}

/// Replays `script` on a fresh session over `p` (cold sweep first, then an
/// edit sweep of the starting state and after each accepted edit). Returns
/// the first mismatch detail.
fn replay(p: &Program, script: &[Edit], max_criteria: usize) -> Option<String> {
    if !is_valid_candidate(p) {
        return None;
    }
    if let Err(detail) = cold_sweep(p, max_criteria) {
        return Some(detail);
    }
    let mut session = EditSession::new(p.clone());
    if let Err(detail) = edit_sweep(&mut session, max_criteria) {
        return Some(detail);
    }
    for edit in script {
        if session.apply(edit).is_err() {
            continue;
        }
        if let Err(detail) = edit_sweep(&mut session, max_criteria) {
            return Some(detail);
        }
    }
    None
}

/// Minimizes a failing (program, script) pair: greedy single-edit drops,
/// then the shared statement shrinker with the surviving script replayed
/// as the failure predicate.
fn shrink_pair(p: &Program, script: &[Edit], max_criteria: usize) -> (Program, Vec<Edit>) {
    let mut cur = script.to_vec();
    let fails = |q: &Program, s: &[Edit]| replay(q, s, max_criteria).is_some();

    'drop: loop {
        for i in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(p, &cand) {
                cur = cand;
                continue 'drop;
            }
        }
        break;
    }

    let small = shrink(p, &|q| fails(q, &cur));
    (small, cur)
}

/// Runs the closure-engine differential session described by `cfg`.
pub fn run_closuretest(cfg: &ClosureConfig) -> ClosureReport {
    run_closuretest_with(cfg, |_| {})
}

/// Like [`run_closuretest`], invoking `progress` after each program (the
/// binary uses this for live output).
pub fn run_closuretest_with(
    cfg: &ClosureConfig,
    mut progress: impl FnMut(&ClosureReport),
) -> ClosureReport {
    let mut report = ClosureReport::default();
    let gen_cfg = cfg.gen_cfg();

    'seeds: for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        for (fi, family) in cfg.families().into_iter().enumerate() {
            if report.findings.len() >= cfg.max_findings {
                break 'seeds;
            }
            let p = family.generate(seed, &gen_cfg);
            report.programs += 1;
            let mut script: Vec<Edit> = Vec::new();

            let mut mismatch = match cold_sweep(&p, cfg.max_criteria) {
                Ok(n) => {
                    report.states += 1;
                    report.comparisons += n;
                    None
                }
                Err(detail) => Some(detail),
            };
            if mismatch.is_none() {
                // Same rng derivation as the incremental mode, so a seed's
                // edit script is reproducible across modes.
                let mut rng = Rng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(fi as u64));
                let mut session = EditSession::new(p.clone());
                for k in 0..=cfg.edits_per_script {
                    // k == 0 sweeps the starting state, so the engine and
                    // its memos ride the seed into the first edit.
                    if k > 0 {
                        let edit = random_edit(&mut rng, session.prog());
                        if session.apply(&edit).is_err() {
                            continue;
                        }
                        script.push(edit);
                        report.edits_applied += 1;
                    }
                    match edit_sweep(&mut session, cfg.max_criteria) {
                        Ok(n) => {
                            report.states += 1;
                            report.comparisons += n;
                        }
                        Err(detail) => {
                            mismatch = Some(detail);
                            break;
                        }
                    }
                }
            }

            if let Some(detail) = mismatch {
                let (small, small_script) = if cfg.shrink {
                    shrink_pair(&p, &script, cfg.max_criteria)
                } else {
                    (p.clone(), script.clone())
                };
                let detail = replay(&small, &small_script, cfg.max_criteria).unwrap_or(detail);
                report.findings.push(ClosureFinding {
                    seed,
                    family,
                    detail,
                    program: print_program(&small),
                    script: small_script,
                });
            }
            progress(&report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_mismatch_free() {
        let cfg = ClosureConfig {
            seeds: 4,
            target_stmts: 25,
            ..ClosureConfig::default()
        };
        let report = run_closuretest(&cfg);
        assert_eq!(report.programs, 12);
        assert!(
            report.states > report.programs,
            "edit states were swept: {report:?}"
        );
        assert!(report.edits_applied > 0, "{report:?}");
        assert!(report.comparisons > 0, "{report:?}");
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn single_family_knob_restricts_the_sweep() {
        let cfg = ClosureConfig {
            seeds: 3,
            target_stmts: 20,
            family: Some(Family::Unstructured),
            ..ClosureConfig::default()
        };
        let report = run_closuretest(&cfg);
        assert_eq!(report.programs, 3);
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }
}
