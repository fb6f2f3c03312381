//! Layer-by-layer analysis build for the traced run.
//!
//! `Analysis::warm_parallel` runs the whole cold build inside one call and
//! partly on helper threads, so no span around it can split the work. The
//! traced run therefore builds a mirror analysis of the same program by
//! calling, in order, the public builders `warm_parallel` schedules, each in
//! its own span. The sum of these spans over the `core.warm_parallel` span
//! of the same programs is `trace.parallel_gain`.

use crate::trace::Tracer;
use jumpslice_cfg::Cfg;
use jumpslice_core::{Analysis, AnalysisSeed, LexSuccTree};
use jumpslice_dataflow::{DataDeps, ReachingDefs};
use jumpslice_lang::{Program, Structure};
use jumpslice_pdg::{ControlDeps, Pdg};

/// The spans of [`split_build`], in call order.
pub const SPLIT: [&str; 10] = [
    "cfg.build",
    "cfg.postdominators",
    "dataflow.reaching_defs",
    "dataflow.data_deps",
    "pdg.control_deps",
    "pdg.merge",
    "core.lst_build",
    "core.with_seed",
    "core.chain_index_build",
    "pdg.closure_index_build",
];

/// Span around `Analysis::new` + `warm_parallel`, the build an op runs.
pub const WARM_PARALLEL: &str = "core.warm_parallel";

/// Worker threads the benchmark gives parallel calls: the machine's
/// available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The op's build: a fresh analysis warmed along the parallel phase DAG.
pub fn warm_parallel<'p>(t: &Tracer, prog: &'p Program) -> Analysis<'p> {
    t.span(WARM_PARALLEL, || {
        let a = Analysis::new(prog);
        a.warm_parallel(nproc());
        a
    })
}

/// Builds a fully warm analysis (closure index included) one public
/// builder at a time, recording a span per builder and the sizes of the
/// dataflow and closure artifacts.
pub fn split_build<'p>(t: &Tracer, prog: &'p Program) -> Analysis<'p> {
    let cfg = t.span("cfg.build", || Cfg::build(prog));
    let pdom = t.span("cfg.postdominators", || cfg.postdominators());
    let rd = t.span("dataflow.reaching_defs", || {
        ReachingDefs::compute(prog, &cfg)
    });
    let data = t.span("dataflow.data_deps", || {
        DataDeps::from_reaching(prog, &cfg, &rd)
    });
    t.count("dataflow.data_edges", data.num_edges() as f64);
    let in_bytes: usize = rd.in_sets().iter().map(|b| b.words().len() * 8).sum();
    t.count("dataflow.in_set_bytes", in_bytes as f64);
    let control = t.span("pdg.control_deps", || {
        ControlDeps::compute_with_pdom(prog, &cfg, &pdom)
    });
    let pdg = t.span("pdg.merge", || Pdg::from_parts(data, control));
    let lst = t.span("core.lst_build", || {
        LexSuccTree::build(prog, &Structure::of(prog))
    });
    let seed = AnalysisSeed {
        cfg: Some(cfg),
        pdom: Some(pdom),
        pdg: Some(pdg),
        lst: Some(lst),
        reaching: Some(rd),
        chain_index: None,
    };
    let a = t.span("core.with_seed", || Analysis::with_seed(prog, seed));
    t.span("core.chain_index_build", || a.warm());
    let components = t.span("pdg.closure_index_build", || {
        a.closure_index().num_components()
    });
    t.count("pdg.closure_components", components as f64);
    a
}
