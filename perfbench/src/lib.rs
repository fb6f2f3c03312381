//! End-to-end slicing benchmark for the jumpslice workspace.
//!
//! Three workloads, each generated from a seed:
//!
//! * [`cold`] — `cold-audit`: fresh programs from source text to four
//!   Figure-7 answers, one at a time.
//! * [`batch`] — `batch-criteria`: `BatchSlicer::slice_all` over a few
//!   hundred criteria on programs analysed during set-up.
//! * [`serve`] — `serve-mixed`: two closed-loop clients driving an
//!   in-process daemon with loads, slices and edits.
//!
//! An untraced run reports the end-to-end metrics; a traced run (same
//! seed) first repeats the untraced measurement for half its time, then
//! records spans around the benchmark's calls into each crate for the other
//! half and reports per-layer metrics (see `README.md`). Every run checks
//! its answers ([`check`]) and fails when any is wrong.

#![forbid(unsafe_code)]

pub mod batch;
pub mod check;
pub mod cold;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use check::Verdicts;
use jumpslice_core::{agrawal_slice, Analysis, Criterion, Slice};
use jumpslice_lang::StmtId;
use jumpslice_obs as obs;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-ups an untraced run times before its measured window; the window
/// runs on the product of the last of them.
pub const SETUPS_BEFORE: usize = 2;
/// Set-ups an untraced run times after its window. A shared host's speed
/// drifts over seconds; set-ups on both sides of the window keep one slow
/// stretch from setting `setup_s`, the median of all of them.
pub const SETUPS_AFTER: usize = 2;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["cold-audit", "batch-criteria", "serve-mixed"];

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input size factor: `1.0` is the benchmark, tests use a tiny scale.
    pub scale: f64,
    /// Corrupt one collected answer before checking (checker self-test).
    pub corrupt: bool,
    /// Directory for trace files and the daemon's store.
    pub out_dir: PathBuf,
}

impl Config {
    /// The benchmark's settings for `seed` and `seconds`.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            seed,
            seconds,
            trace,
            scale: 1.0,
            corrupt: false,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }

    /// Scales a statement count, keeping programs big enough to slice.
    pub fn size(&self, stmts: usize) -> usize {
        ((stmts as f64 * self.scale).round() as usize).max(24)
    }
}

/// Times `setup` [`SETUPS_BEFORE`] times, runs `measure` on the last
/// product, then times [`SETUPS_AFTER`] more set-ups whose products are
/// dropped at once. Returns what `measure` returns and the `setup_s`
/// metric.
pub fn timed_setups<T, R>(
    what: &str,
    mut setup: impl FnMut() -> T,
    measure: impl FnOnce(T) -> R,
) -> (R, Metric) {
    let mut secs = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut timed = || {
        let t0 = Instant::now();
        let product = setup();
        secs.push(t0.elapsed().as_secs_f64());
        product
    };
    for _ in 1..SETUPS_BEFORE {
        drop(timed());
    }
    let r = measure(timed());
    for _ in 0..SETUPS_AFTER {
        drop(timed());
    }
    (r, setup_metric(what, &secs))
}

/// The `setup_s` metric: the median of the set-up times, each listed in
/// the note.
pub fn setup_metric(what: &str, secs: &[f64]) -> Metric {
    let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    Metric::new(
        "setup_s",
        stats::median(secs),
        "s",
        secs.len(),
        format!("{what} (median of set-ups: {} s)", each.join(", ")),
    )
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (ops, calls or requests).
    pub samples: usize,
    /// What the value means on this workload.
    pub note: String,
}

impl Metric {
    /// A metric with its sample count and meaning.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            note: note.into(),
        }
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Ops attempted (both passes of a traced run).
    pub attempted: usize,
    /// Check results.
    pub verdicts: Verdicts,
    /// Digest of the fixed answer prefix.
    pub digest: String,
    /// Metrics for the final JSON line (end-to-end, or per-layer when
    /// traced).
    pub metrics: Vec<Metric>,
    /// Further numbers for the human-readable report only.
    pub extra: Vec<Metric>,
    /// Per-span summary of the traced pass.
    pub spans: Vec<(&'static str, usize, f64, Option<f64>)>,
}

/// Runs one workload.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(workload: &str, cfg: &Config) -> Outcome {
    match workload {
        "cold-audit" => cold::run(cfg),
        "batch-criteria" => batch::run(cfg),
        "serve-mixed" => serve::run(cfg),
        other => panic!("unknown workload '{other}'"),
    }
}

/// One Figure-7 slice, in a `core.fig7` span when traced.
pub fn fig7(t: &Tracer, a: &Analysis<'_>, stmt: StmtId) -> Slice {
    t.span("core.fig7", || agrawal_slice(a, &Criterion::at_stmt(stmt)))
}

/// Traced runs only: repeats one Figure-7 slice under an `obs` capture and
/// records the fixpoint rounds, admitted jumps and slice size the
/// instrumented kernel reports. Recording events slows the kernel, so these
/// calls are never timed as `core.fig7`; their own span keeps them out of
/// the enclosing span's self time.
pub fn fig7_counts(t: &Tracer, a: &Analysis<'_>, stmt: StmtId) {
    if !t.enabled() {
        return;
    }
    let (s, events) = t.span("obs.capture_fig7", || {
        obs::capture(|| agrawal_slice(a, &Criterion::at_stmt(stmt)))
    });
    let count = |f: fn(&obs::Event) -> bool| events.iter().filter(|e| f(e)).count() as f64;
    t.count(
        "core.fixpoint_rounds",
        count(|e| matches!(e, obs::Event::Round { algo: "fig7", .. })),
    );
    t.count(
        "core.jumps_admitted",
        count(|e| matches!(e, obs::Event::JumpAdmitted { algo: "fig7", .. })),
    );
    t.count("core.slice_stmts", s.len() as f64);
}

/// What `peak_rss_mb` covers.
pub const RSS_NOTE: &str =
    "VmHWM of the process after set-up and the measured window (before checking)";

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
