//! The benchmark's own tests: seeded inputs repeat, every workload runs
//! clean at a tiny scale (untraced and traced), and the checker catches a
//! corrupted answer.

use jumpslice_perfbench::{batch, cold, report, run, serve, Config, WORKLOADS};

/// A tiny, fast configuration writing under this test's own directory.
fn tiny(seed: u64, trace: bool, test: &str) -> Config {
    Config {
        scale: 0.03,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test),
        ..Config::new(seed, 0.3, trace)
    }
}

#[test]
fn same_seed_same_programs_and_request_stream() {
    let (a, b, c) = (
        tiny(7, false, "seed"),
        tiny(7, false, "seed"),
        tiny(8, false, "seed"),
    );
    assert_eq!(cold::inputs(&a), cold::inputs(&b));
    assert_ne!(cold::inputs(&a), cold::inputs(&c));
    assert_eq!(batch::inputs(&a), batch::inputs(&b));
    assert_ne!(batch::inputs(&a), batch::inputs(&c));

    let requests = |cfg: &Config| -> Vec<Vec<(String, String)>> {
        serve::inputs(cfg, 12)
            .streams
            .iter()
            .map(|s| {
                s.reqs
                    .iter()
                    .map(|r| (r.line.clone(), s.sources[r.src].to_string()))
                    .collect()
            })
            .collect()
    };
    let (ra, rb, rc) = (requests(&a), requests(&b), requests(&c));
    assert_eq!(ra, rb);
    assert_ne!(ra, rc);
    assert!(
        ra.iter().all(|s| s.len() > 12),
        "every client plays several sessions"
    );
}

#[test]
fn every_workload_runs_clean_at_tiny_scale() {
    for w in WORKLOADS {
        let cfg = tiny(3, false, "smoke");
        let out = run(w, &cfg);
        assert!(out.verdicts.ok(), "{w}: {:?}", out.verdicts.notes);
        assert_eq!(out.verdicts.failed, 0, "{w}: fail_ratio must be 0");
        assert!(out.attempted > 0 && out.verdicts.compared > 0, "{w}");
        assert!(
            out.verdicts.oracle_verified > 0,
            "{w}: the oracle verified nothing"
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "peak_rss_mb",
                "throughput_per_s",
                "p50_ms",
                "p90_ms"
            ],
            "{w}"
        );
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{w}: {:?}",
            out.metrics
        );
        // Same seed, same answers.
        assert_eq!(run(w, &cfg).digest, out.digest, "{w}: digest must repeat");
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for w in WORKLOADS {
        let out = run(w, &tiny(4, true, "traced"));
        assert!(out.verdicts.ok(), "{w}: {:?}", out.verdicts.notes);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, report::per_layer_names(), "{w}");
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(get("trace.parallel_gain") > Some(0.0), "{w}");
        assert!(get("core.fig7_p50_us") > Some(0.0), "{w}");
        assert!(
            out.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value >= 0.0),
            "{w}"
        );
    }
}

#[test]
fn checker_fails_on_a_corrupted_answer() {
    for w in WORKLOADS {
        let cfg = Config {
            corrupt: true,
            ..tiny(5, false, "corrupt")
        };
        let out = run(w, &cfg);
        assert!(!out.verdicts.ok(), "{w}: a corrupted answer went unnoticed");
        assert!(out.verdicts.failed > 0, "{w}");
    }
}
