//! `cold-audit`: fresh programs from source text to Figure-7 answers.
//!
//! One op takes a pair of never-analysed programs of one size, one of each
//! generator family. For each it parses the source, builds the analysis
//! with `Analysis::new` + `warm_parallel(nproc)` and answers four
//! live-write criteria with Figure 7. Ops run one at a time; the phase DAG
//! inside `warm_parallel` uses the cores. Sizes spread log-uniformly over
//! about 1k–8k statements, so the analysis layers do nearly all the work.

use crate::check::{Digest, Verdicts};
use crate::inputs::{derive, log_size, pick_writes, source, Family};
use crate::layers::{nproc, split_build, warm_parallel, WARM_PARALLEL};
use crate::report::{self, Given};
use crate::stats::{ms, Samples};
use crate::trace::{Profile, Tracer, MIRROR, OP};
use crate::{fig7, fig7_counts, timed_setups, Config, Metric, Outcome};
use jumpslice_core::{agrawal_slice, Analysis, Criterion, Slice};
use jumpslice_lang::{parse, StmtId};
use jumpslice_testkit::Rng;
use std::borrow::Cow;
use std::time::Instant;

const PROGRAMS: u64 = 2;
const CRITERIA: u64 = 3;
const SAMPLE: u64 = 4;
/// Criteria per program.
const PER_PROGRAM: usize = 4;
/// Ops every run completes, whatever the window: the digest covers them.
const MIN_OPS: usize = 4;
/// Program pairs generated in set-up; a fixed amount, so `setup_s` does not
/// depend on the window.
const SETUP_PAIRS: usize = 64;
/// Ops re-answered on a fresh sequential analysis after the window.
const REFERENCE_OPS: usize = 3;

/// Program `i` of the stream. Pair `k` — programs `2k` and `2k + 1` — is a
/// structured and an unstructured program of the `k`-th size.
fn stream_source(cfg: &Config, i: usize) -> String {
    source(
        derive(cfg.seed, PROGRAMS, i as u64),
        Family::alternate(i),
        log_size(i / 2, cfg.size(1000), cfg.size(8000)),
    )
}

/// The set-up: the first [`SETUP_PAIRS`] pairs of the program stream.
pub fn inputs(cfg: &Config) -> Vec<String> {
    (0..2 * SETUP_PAIRS)
        .map(|i| stream_source(cfg, i))
        .collect()
}

/// Program `i` of the stream: from the set-up, or generated again. Later
/// programs are not kept, so they do not add to the run's memory.
fn source_of<'s>(cfg: &Config, setup: &'s [String], i: usize) -> Cow<'s, str> {
    setup.get(i).map_or_else(
        || Cow::Owned(stream_source(cfg, i)),
        |s| Cow::Borrowed(s.as_str()),
    )
}

/// One program's audit within an op.
pub struct Audit {
    /// Index into the program stream.
    pub input: usize,
    /// Criterion statements.
    pub criteria: Vec<StmtId>,
    /// Figure-7 answers, one per criterion.
    pub slices: Vec<Slice>,
}

/// One completed op: a structured and an unstructured program of one size,
/// so op-time percentiles never sit in the gap between the families.
pub struct Op {
    /// Source text to answers for both programs, milliseconds.
    pub ms: f64,
    /// Statements analysed.
    pub stmts: usize,
    /// The two audits.
    pub audits: Vec<Audit>,
}

/// Source text to answers for one program.
fn audit(cfg: &Config, t: &Tracer, input: usize, src: &str) -> (Audit, usize) {
    let prog = t.span("lang.parse", || {
        parse(src).expect("generated source parses")
    });
    let a = warm_parallel(t, &prog);
    let mut rng = Rng::seed_from_u64(derive(cfg.seed, CRITERIA, input as u64));
    let criteria = pick_writes(&prog, &a, &mut rng, PER_PROGRAM);
    let slices = criteria.iter().map(|&c| fig7(t, &a, c)).collect();
    (
        Audit {
            input,
            criteria,
            slices,
        },
        prog.len(),
    )
}

/// Runs ops for `seconds` (and at least [`MIN_OPS`]). Op `i` audits pair
/// `i`, so no two ops share a program; a pair past the set-up is generated
/// just before its op, outside the op's time.
pub fn pass(cfg: &Config, setup: &[String], t: &Tracer, seconds: f64) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let i = ops.len();
        let inputs = [2 * i, 2 * i + 1];
        let sources = inputs.map(|input| source_of(cfg, setup, input));
        t.set_op(i as u64);
        let t0 = Instant::now();
        let root = t.enter(OP);
        let (audits, sizes): (Vec<Audit>, Vec<usize>) = inputs
            .iter()
            .zip(&sources)
            .map(|(&input, src)| audit(cfg, t, input, src))
            .unzip();
        drop(root);
        let op_ms = ms(t0.elapsed());
        if t.enabled() {
            t.span(MIRROR, || {
                for (audit, src) in audits.iter().zip(&sources) {
                    let prog = parse(src).expect("generated source parses");
                    let a = split_build(t, &prog);
                    audit.criteria.iter().for_each(|&c| fig7_counts(t, &a, c));
                }
            });
        }
        ops.push(Op {
            ms: op_ms,
            stmts: sizes.iter().sum(),
            audits,
        });
    }
    ops
}

/// Checks a pass: the digest prefix, a seeded sample of ops re-answered on
/// a fresh sequential analysis, and the projection oracle on one answer of
/// each sampled program.
pub fn verify(cfg: &Config, setup: &[String], ops: &mut [Op], v: &mut Verdicts) -> String {
    if cfg.corrupt {
        crate::check::corrupt(&mut ops[0].audits[0].slices[0]);
    }
    let mut digest = Digest::default();
    for audit in ops[..MIN_OPS].iter().flat_map(|op| &op.audits) {
        digest.word(audit.input as u64);
        audit.slices.iter().for_each(|s| digest.slice(s));
    }
    let mut rng = Rng::seed_from_u64(derive(cfg.seed, SAMPLE, 0));
    let mut sample = vec![0];
    while sample.len() < REFERENCE_OPS.min(ops.len()) {
        let i = rng.gen_range(0..ops.len());
        if !sample.contains(&i) {
            sample.push(i);
        }
    }
    for i in sample {
        for audit in &ops[i].audits {
            let src = source_of(cfg, setup, audit.input);
            let prog = parse(&src).expect("generated source parses");
            let a = Analysis::new(&prog);
            for (c, got) in audit.criteria.iter().zip(&audit.slices) {
                v.compared += 1;
                if agrawal_slice(&a, &Criterion::at_stmt(*c)) != *got {
                    v.fail(format!(
                        "cold op {i}: slice at {c:?} differs from a fresh analysis"
                    ));
                }
            }
            if let Some(s) = audit.slices.first() {
                v.oracle(&prog, s, &format!("cold op {i}"));
            }
        }
    }
    digest.hex()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome {
        workload: "cold-audit",
        ..Outcome::default()
    };
    let off = Tracer::new(false, Instant::now(), 0);
    if !cfg.trace {
        let what = format!("generation of the first {SETUP_PAIRS} program pairs");
        let ((sources, mut ops, rss), setup) = timed_setups(
            &what,
            || inputs(cfg),
            |sources| {
                let ops = pass(cfg, &sources, &off, cfg.seconds);
                (sources, ops, crate::peak_rss_mb())
            },
        );
        out.attempted = ops.len();
        out.digest = verify(cfg, &sources, &mut ops, &mut out.verdicts);
        let lat = Samples::new(ops.iter().map(|o| o.ms).collect());
        let stmts: usize = ops.iter().map(|o| o.stmts).sum();
        let n = ops.len();
        out.metrics = vec![
            setup,
            Metric::new("peak_rss_mb", rss, "MB", 1, crate::RSS_NOTE),
            Metric::new("throughput_per_s", stmts as f64 / lat.sum(), "1/s", n, "cold_kstmts_per_s: thousand statements analysed per second"),
            Metric::new("p50_ms", lat.quantile(0.5), "ms", n, "cold_p50_ms: a structured and an unstructured program, source text to four answers each"),
            Metric::new("p90_ms", lat.quantile(0.9), "ms", n, report::tail_note("cold_p90_ms", &lat, 0.9)),
        ];
        return out;
    }

    let sources = inputs(cfg);
    let half = cfg.seconds / 2.0;
    let mut plain = pass(cfg, &sources, &off, half);
    let t = Tracer::new(true, Instant::now(), 0);
    let mut traced = pass(cfg, &sources, &t, half);
    let profile = Profile::merge(vec![t]);
    out.attempted = plain.len() + traced.len();
    out.digest = verify(cfg, &sources, &mut plain, &mut out.verdicts);
    let traced_digest = verify(
        &Config {
            corrupt: false,
            ..cfg.clone()
        },
        &sources,
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
            &traced.iter().map(|o| o.ms).collect::<Vec<_>>(),
            &plain.iter().map(|o| o.ms).collect::<Vec<_>>(),
        ),
    );
    given.insert(
        "trace.mirror_gap_ratio",
        profile.mirror_gap(&[(WARM_PARALLEL, nproc() as f64)], &["obs.capture_fig7"]),
    );
    report::per_layer(&mut out, cfg, &profile, given);
    out
}
