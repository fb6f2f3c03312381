//! Metric tables, provenance and output.
//!
//! Standard output carries a human-readable report (every metric with its
//! unit, sample count and meaning, the check tallies, the digest and the
//! run's provenance) and, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use crate::stats::Samples;
use crate::trace::Profile;
use crate::{layers, Config, Metric, Outcome};
use std::collections::BTreeMap;
use std::path::Path;

/// Where a per-layer metric's value comes from.
enum Src {
    /// Mean self time per call of a span, milliseconds.
    SelfMs(&'static str),
    /// Mean self time per call of a span, microseconds.
    SelfUs(&'static str),
    /// Median span duration, milliseconds.
    P50Ms(&'static str),
    /// Median span duration, microseconds.
    P50Us(&'static str),
    /// 99th-percentile span duration, microseconds.
    P99Us(&'static str),
    /// Mean of a recorded count.
    Count(&'static str),
    /// Mean of a recorded byte count, in KiB.
    CountKb(&'static str),
    /// Supplied by the workload (engine counters, pass comparisons).
    Given,
}

/// Every per-layer metric, in report order. `perfbench/README.md` gives each one's
/// meaning and the end-to-end metric it should move.
const PER_LAYER: &[(&str, &str, Src)] = &[
    ("lang.parse_ms", "ms", Src::SelfMs("lang.parse")),
    ("lang.print_ms", "ms", Src::SelfMs("lang.print")),
    ("cfg.build_ms", "ms", Src::SelfMs("cfg.build")),
    (
        "cfg.postdominators_ms",
        "ms",
        Src::SelfMs("cfg.postdominators"),
    ),
    (
        "dataflow.reaching_defs_ms",
        "ms",
        Src::SelfMs("dataflow.reaching_defs"),
    ),
    (
        "dataflow.data_deps_ms",
        "ms",
        Src::SelfMs("dataflow.data_deps"),
    ),
    (
        "dataflow.data_edges",
        "count",
        Src::Count("dataflow.data_edges"),
    ),
    (
        "dataflow.in_set_bytes",
        "bytes",
        Src::Count("dataflow.in_set_bytes"),
    ),
    ("pdg.control_deps_ms", "ms", Src::SelfMs("pdg.control_deps")),
    ("pdg.merge_ms", "ms", Src::SelfMs("pdg.merge")),
    (
        "pdg.closure_index_build_ms",
        "ms",
        Src::SelfMs("pdg.closure_index_build"),
    ),
    (
        "pdg.closure_components",
        "count",
        Src::Count("pdg.closure_components"),
    ),
    (
        "pdg.indexed_closure_us",
        "us",
        Src::SelfUs("pdg.indexed_closure"),
    ),
    (
        "pdg.direct_closure_us",
        "us",
        Src::SelfUs("pdg.direct_closure"),
    ),
    ("core.lst_build_ms", "ms", Src::SelfMs("core.lst_build")),
    ("core.with_seed_ms", "ms", Src::SelfMs("core.with_seed")),
    (
        "core.chain_index_build_ms",
        "ms",
        Src::SelfMs("core.chain_index_build"),
    ),
    (
        "core.warm_parallel_ms",
        "ms",
        Src::SelfMs(layers::WARM_PARALLEL),
    ),
    ("core.fig7_p50_us", "us", Src::P50Us("core.fig7")),
    ("core.fig7_p99_us", "us", Src::P99Us("core.fig7")),
    (
        "core.fixpoint_rounds",
        "count",
        Src::Count("core.fixpoint_rounds"),
    ),
    (
        "core.jumps_admitted",
        "count",
        Src::Count("core.jumps_admitted"),
    ),
    ("core.slice_stmts", "count", Src::Count("core.slice_stmts")),
    (
        "core.batch_utilization",
        "ratio",
        Src::Count("core.batch_utilization"),
    ),
    ("core.slice_lines_ms", "ms", Src::SelfMs("core.slice_lines")),
    (
        "serve.response_kb",
        "KiB",
        Src::CountKb("serve.response_bytes"),
    ),
    (
        "core.snapshot_encode_ms",
        "ms",
        Src::SelfMs("core.snapshot_encode"),
    ),
    ("store.save_ms", "ms", Src::SelfMs("store.save")),
    ("store.load_ms", "ms", Src::SelfMs("store.load")),
    (
        "core.snapshot_decode_ms",
        "ms",
        Src::SelfMs("core.snapshot_decode"),
    ),
    ("store.record_kb", "KiB", Src::CountKb("store.record_bytes")),
    ("store.hit_ratio", "ratio", Src::Given),
    ("incr.apply_ms", "ms", Src::SelfMs("incr.apply")),
    ("incr.dirty_stmts", "count", Src::Count("incr.dirty_stmts")),
    (
        "incr.fast_path_ratio",
        "ratio",
        Src::Count("incr.fast_path"),
    ),
    (
        "incr.with_analysis_ms",
        "ms",
        Src::SelfMs("incr.with_analysis"),
    ),
    (
        "serve.slice_service_p50_ms",
        "ms",
        Src::P50Ms("serve.slice_service"),
    ),
    (
        "serve.edit_service_p50_ms",
        "ms",
        Src::P50Ms("serve.edit_service"),
    ),
    (
        "serve.load_service_p50_ms",
        "ms",
        Src::P50Ms("serve.load_service"),
    ),
    ("serve.queue_wait_p50_ms", "ms", Src::Given),
    ("serve.queue_wait_p99_ms", "ms", Src::Given),
    ("serve.cache_hit_ratio", "ratio", Src::Given),
    ("serve.evictions", "count", Src::Given),
    ("serve.request_p99_ms", "ms", Src::Given),
    ("serve.edit_p90_ms", "ms", Src::Given),
    ("serve.cold_first_p90_ms", "ms", Src::Given),
    ("serve.restore_first_p90_ms", "ms", Src::Given),
    ("trace.unattributed_ratio", "ratio", Src::Given),
    ("trace.mirror_gap_ratio", "ratio", Src::Given),
    ("trace.overhead_ratio", "ratio", Src::Given),
    ("trace.parallel_gain", "ratio", Src::Given),
];

/// Per-layer values a workload supplies itself, by metric name.
pub type Given = BTreeMap<&'static str, f64>;

/// Names of every per-layer metric, in report order.
pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|(n, _, _)| *n).collect()
}

/// Fills `out.metrics` with every per-layer metric of a traced pass (a
/// layer the workload never calls reads `0`) and writes the spans out.
pub fn per_layer(out: &mut Outcome, cfg: &Config, p: &Profile, mut given: Given) {
    let path = cfg
        .out_dir
        .join(format!("trace-{}-{}.jsonl", out.workload, cfg.seed));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            p.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    given.insert("trace.unattributed_ratio", p.unattributed_ratio());
    let split: f64 = layers::SPLIT.iter().map(|n| p.durations_ms(n).sum()).sum();
    let warm = p.durations_ms(layers::WARM_PARALLEL).sum();
    given.insert(
        "trace.parallel_gain",
        if warm > 0.0 { split / warm } else { 0.0 },
    );
    for (name, unit, src) in PER_LAYER {
        let (value, n) = match src {
            Src::SelfMs(s) => (p.self_ms_per_call(s), p.durations_ms(s).len()),
            Src::SelfUs(s) => (p.self_ms_per_call(s) * 1e3, p.durations_ms(s).len()),
            Src::P50Ms(s) => {
                let d = p.durations_ms(s);
                (d.quantile(0.5), d.len())
            }
            Src::P50Us(s) => {
                let d = p.durations_ms(s);
                (d.quantile(0.5) * 1e3, d.len())
            }
            Src::P99Us(s) => {
                let d = p.durations_ms(s);
                (d.quantile(0.99) * 1e3, d.len())
            }
            Src::Count(s) => {
                let c = p.count_samples(s);
                (c.mean(), c.len())
            }
            Src::CountKb(s) => {
                let c = p.count_samples(s);
                (c.mean() / 1024.0, c.len())
            }
            Src::Given => (given.get(name).copied().unwrap_or(0.0), 1),
        };
        out.metrics.push(Metric::new(name, value, unit, n, ""));
    }
    out.spans = p.summary();
}

/// Ratio of the medians of the traced and untraced op times over the ops
/// both passes completed (both passes run the same op stream from its
/// start).
pub fn prefix_ratio(traced: &[f64], plain: &[f64]) -> f64 {
    let n = traced.len().min(plain.len());
    let a = Samples::new(traced[..n].to_vec()).quantile(0.5);
    let b = Samples::new(plain[..n].to_vec()).quantile(0.5);
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A tail metric's note: its alias, and whether enough samples lie beyond
/// the percentile for it to count as a tail.
pub fn tail_note(alias: &str, s: &Samples, q: f64) -> String {
    if s.tail_counts(q) {
        alias.to_owned()
    } else {
        format!(
            "{alias} (fewer than 10 samples beyond p{}: not a tail)",
            q * 100.0
        )
    }
}

/// Where the run came from.
pub fn provenance(workload: &str, cfg: &Config) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository root")
        .to_path_buf();
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let rustc =
        command_line("rustc", &["--version"], &root).unwrap_or_else(|| "unavailable".into());
    let commit = if root.join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"], &root)
    } else {
        None
    }
    .unwrap_or_else(|| "unavailable (not a git checkout)".into());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"nproc\":{},\"available_parallelism\":{},\"online_cpus\":{online},\"rustc\":\"{}\",\"commit\":\"{}\",\"source_fnv\":\"{}\"}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.scale,
        layers::nproc(),
        layers::nproc(),
        escape(&rustc),
        escape(&commit),
        source_digest(&root),
    )
}

/// First line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned()
    })
}

/// FNV-1a over the workspace sources and lock file, in path order: names
/// the code measured when the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.lock"), root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = crate::check::Digest::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.word(u64::from_le_bytes(w));
            }
        }
    }
    d.hex()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Prints the report and the final JSON line; returns whether every check
/// passed.
pub fn print(out: &Outcome, cfg: &Config) -> bool {
    println!(
        "# {} seed={} seconds={} trace={}",
        out.workload, cfg.seed, cfg.seconds, cfg.trace
    );
    println!("provenance {}", provenance(out.workload, cfg));
    for m in out.metrics.iter().chain(&out.extra) {
        println!(
            "metric {:<30} {:>14.4} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    if !out.spans.is_empty() {
        println!("spans (name, calls, self ms, share of op time):");
        for (name, calls, self_ms, share) in &out.spans {
            let share = share.map_or("mirror".to_owned(), |s| format!("{:.2}%", s * 100.0));
            println!("  {name:<28} {calls:>8} {self_ms:>12.3} {share:>8}");
        }
    }
    let v = &out.verdicts;
    let failed = v.failed;
    println!(
        "checks compared={} failed={} fail_ratio={:.6} oracle verified={} inconclusive={} failed={} digest={}",
        v.compared,
        failed,
        failed as f64 / out.attempted.max(1) as f64,
        v.oracle_verified,
        v.oracle_inconclusive,
        v.oracle_failed,
        out.digest
    );
    for n in &v.notes {
        println!("failure {n}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let ok = v.ok();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ok,
        out.attempted.max(1),
        failed,
        metrics.join(",")
    );
    ok
}
