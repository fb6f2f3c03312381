//! `batch-criteria`: `BatchSlicer::slice_all` over a warm analysis.
//!
//! Set-up generates a few programs of both families (about 3k–6.6k
//! statements), parses them and analyses them fully. One op slices one
//! program's whole criterion pool — every live write, topped up with other
//! live statements — with Figure 7 on `nproc` threads; ops rotate over the
//! programs. The Figure-7 kernel, closure queries and label re-association
//! do all the work; analysis cost lands only in `setup_s`.

use crate::check::{Digest, Verdicts};
use crate::inputs::{criterion_pool, derive, log_size, source, Family};
use crate::layers::{nproc, split_build, warm_parallel};
use crate::report::{self, Given};
use crate::stats::{ms, Samples};
use crate::trace::{Profile, Tracer, MIRROR, OP};
use crate::{
    fig7, fig7_counts, setup_metric, Config, Metric, Outcome, SETUPS_AFTER, SETUPS_BEFORE,
};
use jumpslice_core::{agrawal_slice, Analysis, BatchSlicer, Criterion, Slice};
use jumpslice_lang::{parse, Program, StmtId};
use jumpslice_testkit::Rng;
use std::time::Instant;

const PROGRAMS: u64 = 12;
const POOLS: u64 = 13;
const SAMPLE: u64 = 14;
/// Programs per run.
const PROGRAM_COUNT: usize = 16;
/// Criteria per pool.
const POOL: usize = 192;
/// Pool criteria re-answered on a fresh sequential analysis per program.
const REFERENCE_CRITERIA: usize = 12;
/// Pool criteria per mirrored op the traced pass also runs through both
/// closure engines.
const CLOSURE_CRITERIA: usize = 16;
/// Of those, criteria re-run under an `obs` capture for the kernel counts.
const COUNTED_CRITERIA: usize = 4;
/// Mirror spans that measure extra calls, not calls `slice_all` makes.
const PROBES: [&str; 3] = [
    "obs.capture_fig7",
    "pdg.indexed_closure",
    "pdg.direct_closure",
];
/// Op id of the set-up's spans, apart from every op's.
const SETUP_OP: u64 = u64::MAX;

/// The programs' source text.
pub fn inputs(cfg: &Config) -> Vec<String> {
    (0..PROGRAM_COUNT)
        .map(|i| {
            let size = log_size(i / 2, cfg.size(3000), cfg.size(6600));
            source(
                derive(cfg.seed, PROGRAMS, i as u64),
                Family::alternate(i),
                size,
            )
        })
        .collect()
}

fn parse_all(sources: &[String]) -> Vec<Program> {
    sources
        .iter()
        .map(|s| parse(s).expect("generated source parses"))
        .collect()
}

/// The analyses: warmed along the parallel phase DAG, or (traced) split
/// layer by layer with the parallel build timed beside it.
fn analyse<'p>(t: &Tracer, progs: &'p [Program]) -> Vec<Analysis<'p>> {
    t.set_op(SETUP_OP);
    progs
        .iter()
        .map(|p| {
            if t.enabled() {
                t.span(MIRROR, || {
                    drop(warm_parallel(t, p));
                    split_build(t, p)
                })
            } else {
                warm_parallel(t, p)
            }
        })
        .collect()
}

fn pools(cfg: &Config, progs: &[Program], analyses: &[Analysis<'_>]) -> Vec<Vec<StmtId>> {
    progs
        .iter()
        .zip(analyses)
        .enumerate()
        .map(|(i, (p, a))| {
            let mut rng = Rng::seed_from_u64(derive(cfg.seed, POOLS, i as u64));
            criterion_pool(p, a, &mut rng, POOL)
        })
        .collect()
}

/// One completed op: `slice_all` on a structured program, then on the
/// unstructured program of the same size, so op-time percentiles never sit
/// in the gap between the families.
pub struct Op {
    /// Pair index: the op slices programs `2 * pair` and `2 * pair + 1`.
    pub pair: usize,
    /// Time of the two `slice_all` calls, milliseconds.
    pub ms: f64,
    /// Criteria answered.
    pub criteria: usize,
    /// Digest of each program's answers.
    pub answers: [String; 2],
}

/// The pass's ops and the answers of each program's first op.
pub struct Pass {
    /// Completed ops.
    pub ops: Vec<Op>,
    /// `first[p]`: the answers of the first op on program `p`.
    pub first: Vec<Vec<Slice>>,
}

fn answers_digest(slices: &[Slice]) -> String {
    let mut d = Digest::default();
    slices.iter().for_each(|s| d.slice(s));
    d.hex()
}

/// Runs ops for `seconds` (and at least one per program).
pub fn pass(
    cfg: &Config,
    analyses: &[Analysis<'_>],
    pools: &[Vec<StmtId>],
    t: &Tracer,
    seconds: f64,
) -> Pass {
    let crits: Vec<Vec<Criterion>> = pools
        .iter()
        .map(|p| p.iter().map(|&s| Criterion::at_stmt(s)).collect())
        .collect();
    let pairs = analyses.len() / 2;
    let mut out = Pass {
        ops: Vec::new(),
        first: Vec::new(),
    };
    let start = Instant::now();
    while out.ops.len() < pairs || start.elapsed().as_secs_f64() < seconds {
        let i = out.ops.len();
        let pair = i % pairs;
        t.set_op(i as u64);
        let t0 = Instant::now();
        let results: Vec<_> = t.span(OP, || {
            [2 * pair, 2 * pair + 1]
                .map(|p| {
                    t.span("core.slice_all", || {
                        BatchSlicer::new(&analyses[p])
                            .with_threads(nproc())
                            .slice_all_stats(agrawal_slice, &crits[p])
                    })
                })
                .into()
        });
        let op_ms = ms(t0.elapsed());
        // Mirror every fourth op only: most traced ops then follow each
        // other with warm caches, as untraced ops do.
        if t.enabled() && i % 4 == 0 {
            t.span(MIRROR, || {
                for (k, (_, stats)) in results.iter().enumerate() {
                    let p = 2 * pair + k;
                    t.count("core.batch_utilization", stats.utilization());
                    mirror(cfg, t, &analyses[p], &pools[p], i);
                }
            });
        }
        let mut answers = results.iter().map(|(s, _)| answers_digest(s));
        out.ops.push(Op {
            pair,
            ms: op_ms,
            criteria: results.iter().map(|(s, _)| s.len()).sum(),
            answers: [(); 2].map(|()| answers.next().expect("two programs per op")),
        });
        if out.first.len() == 2 * pair {
            out.first.extend(results.into_iter().map(|(s, _)| s));
        }
    }
    out
}

/// Re-runs every criterion of the op's pool, one call at a time, through
/// the Figure-7 kernel — the calls `slice_all` makes — and a seeded sample
/// of them through both closure engines.
fn mirror(cfg: &Config, t: &Tracer, a: &Analysis<'_>, pool: &[StmtId], op: usize) {
    for &c in pool {
        drop(fig7(t, a, c));
    }
    let mut rng = Rng::seed_from_u64(derive(cfg.seed, SAMPLE, op as u64));
    for k in 0..CLOSURE_CRITERIA.min(pool.len()) {
        let c = pool[rng.gen_range(0..pool.len())];
        if k < COUNTED_CRITERIA {
            fig7_counts(t, a, c);
        }
        drop(t.span("pdg.indexed_closure", || {
            a.closure_index().backward_closure([c])
        }));
        drop(t.span("pdg.direct_closure", || a.pdg().backward_closure([c])));
    }
}

/// Checks a pass: every op on a program must repeat the program's first
/// answers, a seeded sample of those is re-answered on a fresh sequential
/// analysis, and the projection oracle checks two answers per program.
pub fn verify(
    cfg: &Config,
    progs: &[Program],
    pools: &[Vec<StmtId>],
    pass: &mut Pass,
    v: &mut Verdicts,
) -> String {
    let expected: Vec<String> = pass.first.iter().map(|s| answers_digest(s)).collect();
    for (i, op) in pass.ops.iter().enumerate() {
        for (k, answers) in op.answers.iter().enumerate() {
            let p = 2 * op.pair + k;
            if *answers != expected[p] {
                v.fail(format!(
                    "batch op {i}: answers differ from the first op on program {p}"
                ));
            }
        }
    }
    if cfg.corrupt {
        crate::check::corrupt(&mut pass.first[0][0]);
    }
    let mut digest = Digest::default();
    for slices in &pass.first {
        slices.iter().for_each(|s| digest.slice(s));
    }
    for (p, prog) in progs.iter().enumerate() {
        let a = Analysis::new(prog);
        let mut rng = Rng::seed_from_u64(derive(cfg.seed, SAMPLE, u64::MAX - p as u64));
        let n = pools[p].len();
        for k in 0..REFERENCE_CRITERIA.min(n) {
            let i = if k == 0 { 0 } else { rng.gen_range(0..n) };
            let got = &pass.first[p][i];
            v.compared += 1;
            if agrawal_slice(&a, &Criterion::at_stmt(pools[p][i])) != *got {
                v.fail(format!(
                    "batch program {p}: criterion {i} differs from a fresh analysis"
                ));
            }
            if k < 2 {
                v.oracle(prog, got, &format!("batch program {p} criterion {i}"));
            }
        }
    }
    digest.hex()
}

/// The set-up's products that outlive its analyses.
struct Setup {
    progs: Vec<Program>,
    pools: Vec<Vec<StmtId>>,
    secs: f64,
}

/// Runs one timed set-up — generation, parsing, warm analyses and pool
/// selection — then `then`, untimed, on its analyses, which are dropped
/// before it returns.
fn set_up<R>(cfg: &Config, then: impl FnOnce(&[Analysis<'_>], &[Vec<StmtId>]) -> R) -> (Setup, R) {
    let t0 = Instant::now();
    let progs = parse_all(&inputs(cfg));
    let analyses = analyse(&Tracer::new(false, t0, 0), &progs);
    let pools = pools(cfg, &progs, &analyses);
    let secs = t0.elapsed().as_secs_f64();
    let r = then(&analyses, &pools);
    drop(analyses);
    (Setup { progs, pools, secs }, r)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome {
        workload: "batch-criteria",
        ..Outcome::default()
    };
    let off = Tracer::new(false, Instant::now(), 0);
    if !cfg.trace {
        // As `timed_setups`, with the window inside the last set-up before
        // it: the analyses borrow the set-up's programs.
        let setup_only = || set_up(cfg, |_, _| ()).0.secs;
        let mut secs: Vec<f64> = (1..SETUPS_BEFORE).map(|_| setup_only()).collect();
        let (s, (mut p, rss)) = set_up(cfg, |analyses, pools| {
            let p = pass(cfg, analyses, pools, &off, cfg.seconds);
            (p, crate::peak_rss_mb())
        });
        secs.push(s.secs);
        secs.extend((0..SETUPS_AFTER).map(|_| setup_only()));
        out.attempted = p.ops.len();
        out.digest = verify(cfg, &s.progs, &s.pools, &mut p, &mut out.verdicts);
        let setup = setup_metric("generation, parsing, warm analyses and pools", &secs);
        return finish(out, setup, rss, &p);
    }

    let half = cfg.seconds / 2.0;
    let (s, mut plain) = set_up(cfg, |analyses, pools| {
        pass(cfg, analyses, pools, &off, half)
    });
    let t = Tracer::new(true, Instant::now(), 0);
    let analyses = analyse(&t, &s.progs);
    let mut traced = pass(cfg, &analyses, &s.pools, &t, half);
    drop(analyses);
    let profile = Profile::merge(vec![t]);
    out.attempted = plain.ops.len() + traced.ops.len();
    out.digest = verify(cfg, &s.progs, &s.pools, &mut plain, &mut out.verdicts);
    let traced_digest = verify(
        &Config {
            corrupt: false,
            ..cfg.clone()
        },
        &s.progs,
        &s.pools,
        &mut traced,
        &mut out.verdicts,
    );
    if traced_digest != out.digest {
        out.verdicts
            .fail("traced pass answered differently from the untraced pass".to_owned());
    }
    let mut given = Given::new();
    given.insert(
        "trace.overhead_ratio",
        report::prefix_ratio(
            &traced.ops.iter().map(|o| o.ms).collect::<Vec<_>>(),
            &plain.ops.iter().map(|o| o.ms).collect::<Vec<_>>(),
        ),
    );
    given.insert(
        "trace.mirror_gap_ratio",
        profile.mirror_gap(&[("core.slice_all", nproc() as f64)], &PROBES),
    );
    report::per_layer(&mut out, cfg, &profile, given);
    out
}

/// The end-to-end metrics of an untraced pass.
fn finish(mut out: Outcome, setup: Metric, rss: f64, p: &Pass) -> Outcome {
    let lat = Samples::new(p.ops.iter().map(|o| o.ms).collect());
    let crits: usize = p.ops.iter().map(|o| o.criteria).sum();
    let n = p.ops.len();
    out.metrics = vec![
        setup,
        Metric::new("peak_rss_mb", rss, "MB", 1, crate::RSS_NOTE),
        Metric::new(
            "throughput_per_s",
            crits as f64 / lat.sum() * 1e3,
            "1/s",
            n,
            "batch_criteria_per_s: criteria answered per second",
        ),
        Metric::new(
            "p50_ms",
            lat.quantile(0.5),
            "ms",
            n,
            "slice_all over the pools of a structured and an unstructured program",
        ),
        Metric::new(
            "p90_ms",
            lat.quantile(0.9),
            "ms",
            n,
            report::tail_note("batch_p90_ms", &lat, 0.9),
        ),
    ];
    out.extra.push(Metric::new(
        "pool_criteria",
        crits as f64 / n as f64,
        "count",
        n,
        "criteria per op",
    ));
    out
}
