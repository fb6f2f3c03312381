//! `serve-mixed`: two closed-loop clients against an in-process daemon.
//!
//! The daemon is `Engine::new(budget).with_store(SnapshotStore)` in a fresh
//! directory behind `serve::Pool` with the default worker count. Each client
//! waits for every reply before it sends the next request and plays editor
//! sessions: `load` a program, a run of Figure-7 `slice` requests at
//! arbitrary lines, and occasionally an `edit` (from
//! `jumpslice_incr::random_edit`) followed by more slices. Some sessions
//! open never-seen programs (cold misses). The cache byte budget sits below
//! the pool's working set, so re-opened programs come back from the store.
//! Requests carry no deadlines, so answers never depend on timing.
//!
//! The whole request stream is generated during set-up: an edit's result is
//! a pure function of the program it applies to, so each client's stream,
//! and every key it expects, follows from the seed alone.

use crate::check::{Digest, Verdicts};
use crate::inputs::{derive, line_table, log_size, program, Family};
use crate::layers::{split_build, warm_parallel};
use crate::report::{self, Given};
use crate::stats::{ms, Samples};
use crate::trace::{Profile, Tracer, MIRROR, OP};
use crate::{fig7, fig7_counts, timed_setups, Config, Metric, Outcome};
use jumpslice_cfg::Cfg;
use jumpslice_core::{agrawal_slice, decode_snapshot, encode_snapshot, Analysis, Criterion};
use jumpslice_incr::{
    apply_edit, random_edit, ApplyPath, Edit, EditExpr, EditSession, JumpKind, NewStmt,
};
use jumpslice_lang::{parse, print_program, BlockSel, Program};
use jumpslice_obs::Json;
use jumpslice_serve::proto::parse_edit;
use jumpslice_serve::{content_hash, key_string, Engine, Pool, ServerConfig};
use jumpslice_store::SnapshotStore;
use jumpslice_testkit::Rng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const POOL_PROGRAMS: u64 = 22;
const FRESH_PROGRAMS: u64 = 23;
const STREAMS: u64 = 24;
const SAMPLE: u64 = 25;
/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;
/// Programs each client's sessions re-open.
const POOL: usize = 16;
/// Share of sessions that open a never-seen program.
const P_NEW: f64 = 0.2;
/// Share of sessions that edit.
const P_EDIT: f64 = 0.4;
/// Requests every client completes, whatever the window: the digest
/// covers them.
const MIN_REQUESTS: usize = 24;
/// Slice answers per run checked by the projection oracle.
const ORACLE_SAMPLES: usize = 6;
/// Store byte budget: roomy enough that re-opened programs restore.
const STORE_BYTES: u64 = 512 << 20;
/// Mirror spans that measure extra calls, not calls the daemon makes.
const PROBES: [&str; 2] = ["obs.capture_fig7", "pdg.direct_closure"];

/// Request classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `load` of a session's program.
    Load,
    /// The first `slice` after a `load`.
    FirstSlice,
    /// Any later `slice`.
    Slice,
    /// `edit`.
    Edit,
}

/// One request of a client's stream.
pub struct Req {
    /// Request class.
    pub class: Class,
    /// Index (in the client's source table) of the program the request
    /// targets; for an edit, of the program it produces.
    pub src: usize,
    /// The request line (a `load` line is built when sent).
    pub line: String,
    /// 1-based criterion lines of a slice.
    pub criteria: Vec<usize>,
    /// The edit, as the daemon parses it.
    pub edit: Option<Edit>,
}

/// A client's sources and requests.
pub struct Stream {
    /// Every program text the stream visits, edited versions included.
    pub sources: Vec<Arc<String>>,
    /// Requests in send order.
    pub reqs: Vec<Req>,
    /// The daemon's cache estimate for the largest pool program.
    pub max_bytes: usize,
}

/// Set-up output: one request stream per client.
pub struct Inputs {
    /// One stream per client.
    pub streams: Vec<Stream>,
    /// Cache byte budget.
    pub cache_bytes: usize,
}

/// Generates each client's program pool, its never-seen programs and its
/// request stream. `sessions` bounds each stream; a client that runs out
/// replays it.
pub fn inputs(cfg: &Config, sessions: usize) -> Inputs {
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || stream(cfg, c, sessions)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream generation"))
            .collect()
    });
    let max_est = streams.iter().map(|s| s.max_bytes).max().unwrap_or(0);
    Inputs {
        streams,
        // Room for every client's open program with a margin; far below
        // the pools' working set.
        cache_bytes: (CLIENTS + 1) * max_est * 5 / 4,
    }
}

/// One client's stream. Clients re-open disjoint pools (each mixing both
/// families over the same sizes): an edit moves the daemon's one shared
/// entry for a program to its new key, so a program open in two clients'
/// sessions at once would vanish under the other one.
fn stream(cfg: &Config, client: usize, sessions: usize) -> Stream {
    let (lo, hi) = (cfg.size(1000), cfg.size(4000));
    let c = client as u64;
    let mut pool_progs: Vec<Program> = (0..POOL)
        .map(|j| {
            program(
                derive(cfg.seed, POOL_PROGRAMS, c << 32 | j as u64),
                Family::alternate(j),
                log_size(j / 2, lo, hi),
            )
        })
        .collect();
    let sources: Vec<Arc<String>> = pool_progs
        .iter()
        .map(|p| Arc::new(print_program(p)))
        .collect();
    let max_bytes = pool_progs
        .iter()
        .zip(&sources)
        .map(|(p, src)| jumpslice_serve::cache::estimate_bytes(src.len(), p.len()))
        .max()
        .unwrap_or(0);
    let mut s = Stream {
        sources,
        reqs: Vec::new(),
        max_bytes,
    };
    // Re-parse so every session starts from exactly what the daemon parses.
    for (p, src) in pool_progs.iter_mut().zip(&s.sources) {
        *p = parse(src).expect("pool programs parse");
    }
    let mut rng = Rng::seed_from_u64(derive(cfg.seed, STREAMS, c));
    let mut fresh = 0usize;
    for _ in 0..sessions {
        let (mut prog, mut src) = if rng.gen_bool(P_NEW) {
            let p = program(
                derive(cfg.seed, FRESH_PROGRAMS, c << 32 | fresh as u64),
                Family::alternate(fresh),
                log_size(fresh / 2, lo, hi),
            );
            fresh += 1;
            s.sources.push(Arc::new(print_program(&p)));
            let p = parse(s.sources.last().expect("just pushed")).expect("fresh programs parse");
            (p, s.sources.len() - 1)
        } else {
            let i = rng.gen_range(0..POOL);
            (pool_progs[i].clone(), i)
        };
        s.reqs.push(Req {
            class: Class::Load,
            src,
            line: String::new(),
            criteria: Vec::new(),
            edit: None,
        });
        let slices = rng.gen_range(3..8usize);
        push_slices(&mut s, &mut rng, &prog, src, slices, true);
        if rng.gen_bool(P_EDIT) {
            let edits = 1 + usize::from(rng.gen_bool(0.3));
            for _ in 0..edits {
                let Some((edit, next)) = valid_edit(&mut rng, &prog) else {
                    break;
                };
                let old_key = content_hash(&s.sources[src]);
                let text = print_program(&next);
                s.sources.push(Arc::new(text));
                src = s.sources.len() - 1;
                prog = next;
                s.reqs.push(Req {
                    class: Class::Edit,
                    src,
                    line: Json::Obj(vec![
                        ("op".into(), Json::Str("edit".into())),
                        ("program".into(), Json::Str(key_string(old_key))),
                        ("edit".into(), edit.1),
                    ])
                    .write_compact(),
                    criteria: Vec::new(),
                    edit: Some(edit.0),
                });
                let n = rng.gen_range(1..4usize);
                push_slices(&mut s, &mut rng, &prog, src, n, false);
            }
        }
    }
    s
}

fn push_slices(s: &mut Stream, rng: &mut Rng, prog: &Program, src: usize, n: usize, first: bool) {
    let key = key_string(content_hash(&s.sources[src]));
    let lines = prog.lexical_order().len();
    for k in 0..n {
        let criteria: Vec<usize> = (0..rng.gen_range(1..5usize))
            .map(|_| rng.gen_range(1..lines + 1))
            .collect();
        let crit_json = criteria
            .iter()
            .map(|&l| Json::Obj(vec![("line".into(), Json::Num(l as f64))]))
            .collect();
        s.reqs.push(Req {
            class: if first && k == 0 {
                Class::FirstSlice
            } else {
                Class::Slice
            },
            src,
            line: Json::Obj(vec![
                ("op".into(), Json::Str("slice".into())),
                ("program".into(), Json::Str(key.clone())),
                ("algo".into(), Json::Str("fig7".into())),
                ("criteria".into(), Json::Arr(crit_json)),
            ])
            .write_compact(),
            criteria,
            edit: None,
        });
    }
}

/// A random edit the daemon will accept, as it parses it from the wire,
/// with its wire form and the program it produces.
fn valid_edit(rng: &mut Rng, prog: &Program) -> Option<((Edit, Json), Program)> {
    for _ in 0..32 {
        let wire = edit_json(&random_edit(rng, prog));
        let edit = parse_edit(&wire).expect("wire edits parse");
        let Ok(applied) = apply_edit(prog, &edit) else {
            continue;
        };
        if Cfg::build(&applied.prog).all_reach_exit() {
            return Some(((edit, wire), applied.prog));
        }
    }
    None
}

/// The wire form of an edit (see `jumpslice_serve::proto::parse_edit`).
pub fn edit_json(e: &Edit) -> Json {
    let s = |x: &str| Json::Str(x.to_owned());
    let path = Json::Arr(
        e.path()
            .steps
            .iter()
            .map(|st| {
                let sel = match st.block {
                    BlockSel::Body => s("body"),
                    BlockSel::Then => s("then"),
                    BlockSel::Else => s("else"),
                    BlockSel::Arm(i) => Json::Obj(vec![("arm".into(), Json::Num(i as f64))]),
                };
                Json::Arr(vec![sel, Json::Num(st.index as f64)])
            })
            .collect(),
    );
    let mut fields = vec![("path".to_owned(), path)];
    let kind = match e {
        Edit::ReplaceExpr { with, .. } => {
            fields.push(("expr".into(), s(&expr_text(with))));
            "replace_expr"
        }
        Edit::InsertStmt { stmt, .. } => {
            let st = match stmt {
                NewStmt::Assign { var, rhs } => vec![
                    ("kind".into(), s("assign")),
                    ("var".into(), s(var)),
                    ("expr".into(), s(&expr_text(rhs))),
                ],
                NewStmt::Read { var } => vec![("kind".into(), s("read")), ("var".into(), s(var))],
                NewStmt::Write { arg } => {
                    vec![
                        ("kind".into(), s("write")),
                        ("expr".into(), s(&expr_text(arg))),
                    ]
                }
                NewStmt::Skip => vec![("kind".into(), s("skip"))],
            };
            fields.push(("stmt".into(), Json::Obj(st)));
            "insert"
        }
        Edit::DeleteStmt { .. } => "delete",
        Edit::ToggleJump { jump, .. } => {
            let j = match jump {
                JumpKind::Break => s("break"),
                JumpKind::Continue => s("continue"),
                JumpKind::Return => s("return"),
                JumpKind::Goto(l) => Json::Obj(vec![("goto".into(), s(l))]),
            };
            fields.push(("jump".into(), j));
            "toggle_jump"
        }
    };
    fields.insert(0, ("kind".into(), s(kind)));
    Json::Obj(fields)
}

fn expr_text(e: &EditExpr) -> String {
    match e {
        EditExpr::Num(n) => n.to_string(),
        EditExpr::Var(v) => v.clone(),
        EditExpr::Unary(op, x) => {
            let sym = match op {
                jumpslice_lang::UnOp::Neg => "-",
                jumpslice_lang::UnOp::Not => "!",
            };
            format!("({sym}{})", expr_text(x))
        }
        EditExpr::Binary(op, l, r) => {
            format!("({} {} {})", expr_text(l), op.symbol(), expr_text(r))
        }
        EditExpr::Call(f, args) => {
            let args: Vec<String> = args.iter().map(expr_text).collect();
            format!("{f}({})", args.join(", "))
        }
    }
}

/// One answered request.
pub struct Rec {
    /// Index in the client's stream.
    pub idx: usize,
    /// Round trip (untraced) or `handle_line` time (traced), milliseconds.
    pub ms: f64,
    /// The response line.
    pub resp: String,
}

/// A pass's records per client, its wall time, and the engine counters.
pub struct Pass {
    /// `recs[c]`: client `c`'s records in send order.
    pub recs: Vec<Vec<Rec>>,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Cache hit ratio, evictions and store hit ratio at the end.
    pub counters: (f64, f64, f64),
}

fn load_line(src: &str) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("load".into())),
        ("source".into(), Json::Str(src.to_owned())),
    ])
    .write_compact()
}

/// A fresh directory under the run's output directory.
fn scratch_dir(cfg: &Config, what: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    cfg.out_dir
        .join(format!("{what}-{}-{nanos}", std::process::id()))
}

/// Starts the daemon: engine, store in a fresh directory, worker pool.
fn start(cfg: &Config, inputs: &Inputs) -> (Pool, PathBuf) {
    let dir = scratch_dir(cfg, "store");
    let store = SnapshotStore::open(&dir, STORE_BYTES).expect("store directory");
    let engine = Engine::new(inputs.cache_bytes).with_store(store);
    let sc = ServerConfig::default();
    (Pool::start(Arc::new(engine), sc.workers, sc.queue), dir)
}

fn counters(engine: &Engine) -> (f64, f64, f64) {
    let c = engine.cache_stats();
    let s = engine.store().map(|s| s.stats()).unwrap_or_default();
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    (
        ratio(c.hits, c.misses),
        c.evictions as f64,
        ratio(s.hits, s.misses),
    )
}

/// Runs both clients for `seconds` (and at least [`MIN_REQUESTS`] each).
/// Untraced, requests go through `Pool::round_trip`; traced, each client
/// calls `Engine::handle_line` itself and mirrors the layer calls.
pub fn pass(cfg: &Config, inputs: &Inputs, traced: bool, seconds: f64) -> (Pass, Option<Profile>) {
    let (pool, dir) = start(cfg, inputs);
    let mirror_dir = scratch_dir(cfg, "mirror");
    let mirror_store =
        SnapshotStore::open(&mirror_dir, STORE_BYTES).expect("mirror store directory");
    let epoch = Instant::now();
    let (recs, tracers): (Vec<Vec<Rec>>, Vec<Tracer>) = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (pool, mirror_store) = (&pool, &mirror_store);
                scope.spawn(move || {
                    let t = Tracer::new(traced, epoch, c as u32);
                    let recs = client(c, stream, pool, mirror_store, &t, epoch, seconds);
                    (recs, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let counters = counters(pool.engine());
    assert!(pool.shutdown(), "a daemon worker panicked");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&mirror_dir).ok();
    let profile = traced.then(|| Profile::merge(tracers));
    (
        Pass {
            recs,
            wall_s,
            counters,
        },
        profile,
    )
}

/// The traced client's view of its open program.
struct MirrorSession {
    session: EditSession,
    /// The daemon writes a snapshot behind the next slice.
    save_pending: bool,
}

fn client(
    c: usize,
    stream: &Stream,
    pool: &Pool,
    store: &SnapshotStore,
    t: &Tracer,
    epoch: Instant,
    seconds: f64,
) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut mirror: Option<MirrorSession> = None;
    let mut k = 0usize;
    while recs.len() < MIN_REQUESTS || epoch.elapsed().as_secs_f64() < seconds {
        let idx = k % stream.reqs.len();
        k += 1;
        let req = &stream.reqs[idx];
        let load;
        let line = if req.class == Class::Load {
            load = load_line(&stream.sources[req.src]);
            &load
        } else {
            &req.line
        };
        t.set_op(((c as u64) << 40) | k as u64);
        let t0 = Instant::now();
        let resp = if t.enabled() {
            let name = match req.class {
                Class::Load => "serve.load_service",
                Class::FirstSlice | Class::Slice => "serve.slice_service",
                Class::Edit => "serve.edit_service",
            };
            t.span(OP, || t.span(name, || pool.engine().handle_line(line)))
        } else {
            pool.round_trip(line).expect("daemon accepts requests")
        };
        let elapsed = ms(t0.elapsed());
        if t.enabled() {
            t.span(MIRROR, || {
                mirror_step(t, stream, req, &resp, store, &mut mirror)
            });
        }
        recs.push(Rec {
            idx,
            ms: elapsed,
            resp,
        });
    }
    recs
}

/// Repeats, on mirror objects, the layer calls the daemon made for one
/// request: a cold build or a store restore for a `load`, the per-request
/// re-seed, Figure 7, line rendering and the write-behind snapshot for a
/// `slice`, and the incremental update plus re-print for an `edit`.
fn mirror_step(
    t: &Tracer,
    stream: &Stream,
    req: &Req,
    resp: &str,
    store: &SnapshotStore,
    mirror: &mut Option<MirrorSession>,
) {
    let source = &stream.sources[req.src];
    let key = content_hash(source);
    let j = Json::parse(resp).unwrap_or(Json::Null);
    match req.class {
        Class::Load => {
            let restored = j.get("restored").and_then(Json::as_bool) == Some(true);
            let from_store = restored
                .then(|| t.span("store.load", || store.load(key)))
                .flatten()
                .and_then(|bytes| {
                    t.count("store.record_bytes", bytes.len() as f64);
                    t.span("core.snapshot_decode", || decode_snapshot(&bytes))
                        .ok()
                })
                .and_then(|snap| EditSession::try_with_seed(snap.prog, snap.seed).ok());
            let session = from_store.unwrap_or_else(|| {
                let prog = t.span("lang.parse", || {
                    parse(source).expect("stream sources parse")
                });
                drop(warm_parallel(t, &prog));
                let seed = split_build(t, &prog).into_seed();
                EditSession::try_with_seed(prog, seed).expect("stream programs analyse")
            });
            *mirror = Some(MirrorSession {
                session,
                save_pending: !store.contains(key),
            });
        }
        Class::FirstSlice | Class::Slice => {
            let Some(m) = mirror.as_mut() else { return };
            t.count("serve.response_bytes", resp.len() as f64);
            t.span("incr.with_analysis", || {
                m.session.with_analysis(|a| {
                    for (k, &line) in req.criteria.iter().enumerate() {
                        let Some(stmt) = a.prog().try_at_line(line) else {
                            continue;
                        };
                        let s = fig7(t, a, stmt);
                        if k == 0 {
                            fig7_counts(t, a, stmt);
                        }
                        drop(t.span("pdg.direct_closure", || a.pdg().backward_closure([stmt])));
                        drop(t.span("core.slice_lines", || s.lines(a.prog())));
                    }
                })
            });
            if m.save_pending && !store.contains(key) {
                let payload = t.span("core.snapshot_encode", || {
                    encode_snapshot(source, m.session.prog(), m.session.seed())
                });
                t.count("store.record_bytes", payload.len() as f64);
                t.span("store.save", || store.save(key, &payload)).ok();
            }
            m.save_pending = false;
        }
        Class::Edit => {
            let (Some(m), Some(edit)) = (mirror.as_mut(), req.edit.as_ref()) else {
                return;
            };
            let Ok(outcome) = t.span("incr.apply", || m.session.apply(edit)) else {
                return;
            };
            t.count("incr.dirty_stmts", outcome.dirty_stmts as f64);
            let fast = j
                .get("path")
                .and_then(Json::as_str)
                .map_or(outcome.path != ApplyPath::FullRebuild, |p| {
                    p != "full_rebuild"
                });
            t.count("incr.fast_path", f64::from(u8::from(fast)));
            // The daemon re-prints and re-hashes the program after every edit.
            let key = t.span("lang.print", || {
                content_hash(&print_program(m.session.prog()))
            });
            std::hint::black_box(key);
            m.save_pending = true;
        }
    }
}

/// Lines of one slice response, per criterion.
fn response_lines(j: &Json) -> Option<Vec<Vec<u32>>> {
    j.get("slices")?
        .as_arr()?
        .iter()
        .map(|s| {
            s.get("lines")?
                .as_arr()?
                .iter()
                .map(|l| l.as_num().map(|n| n as u32))
                .collect()
        })
        .collect()
}

/// Checks every response: loads and edits must name the expected key, and
/// every slice must equal, line for line, Figure 7 on a fresh `Analysis`
/// of the same source — built from the text, bypassing the cache, the
/// store and the incremental session. The projection oracle checks a
/// seeded sample of the answers.
pub fn verify(cfg: &Config, inputs: &Inputs, pass: &mut Pass, v: &mut Verdicts) -> String {
    if cfg.corrupt {
        let rec = pass.recs[0]
            .iter_mut()
            .find(|r| {
                inputs.streams[0].reqs[r.idx].class != Class::Load && r.resp.contains("\"lines\":[")
            })
            .expect("the stream slices early");
        rec.resp = rec.resp.replacen("\"lines\":[", "\"lines\":[4294967,", 1);
    }
    let mut digest = Digest::default();
    for (c, recs) in pass.recs.iter().enumerate() {
        for r in &recs[..MIN_REQUESTS] {
            let req = &inputs.streams[c].reqs[r.idx];
            let j = Json::parse(&r.resp).unwrap_or(Json::Null);
            match req.class {
                Class::Load | Class::Edit => {
                    digest.word(content_hash(
                        j.get("program").and_then(Json::as_str).unwrap_or(""),
                    ));
                }
                Class::FirstSlice | Class::Slice => {
                    for lines in response_lines(&j).unwrap_or_default() {
                        digest.lines(&lines);
                    }
                }
            }
        }
    }
    // Group slice checks by source so each source is analysed once; the
    // groups split over two checker threads.
    let mut jobs: Vec<(usize, usize, Vec<&Rec>)> = Vec::new();
    for (c, recs) in pass.recs.iter().enumerate() {
        let stream = &inputs.streams[c];
        let mut by_src: std::collections::BTreeMap<usize, Vec<&Rec>> = Default::default();
        for r in recs {
            let req = &stream.reqs[r.idx];
            let j = Json::parse(&r.resp).unwrap_or(Json::Null);
            if j.get("ok").and_then(Json::as_bool) != Some(true) {
                v.fail(format!("client {c} request {}: {}", r.idx, trim(&r.resp)));
                continue;
            }
            match req.class {
                Class::Load | Class::Edit => {
                    let want = key_string(content_hash(&stream.sources[req.src]));
                    if j.get("program").and_then(Json::as_str) != Some(want.as_str()) {
                        v.fail(format!(
                            "client {c} request {}: key differs from {want}",
                            r.idx
                        ));
                    }
                }
                Class::FirstSlice | Class::Slice => by_src.entry(req.src).or_default().push(r),
            }
        }
        jobs.extend(by_src.into_iter().map(|(src, rs)| (c, src, rs)));
    }
    let mut rng = Rng::seed_from_u64(derive(cfg.seed, SAMPLE, 0));
    let total: usize = jobs.iter().map(|j| j.2.len()).sum();
    let oracle_at: Vec<usize> = (0..ORACLE_SAMPLES.min(total))
        .map(|_| rng.gen_range(0..total))
        .collect();
    let mut offset = 0;
    let jobs: Vec<_> = jobs
        .into_iter()
        .map(|(c, src, rs)| {
            let picks: Vec<usize> = oracle_at
                .iter()
                .filter(|&&o| o >= offset && o < offset + rs.len())
                .map(|o| o - offset)
                .collect();
            offset += rs.len();
            (c, src, rs, picks)
        })
        .collect();
    let results: Vec<Verdicts> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let jobs = &jobs;
                scope.spawn(move || {
                    let mut v = Verdicts::default();
                    for (c, src, rs, picks) in jobs.iter().skip(w).step_by(2) {
                        check_source(&inputs.streams[*c], *c, *src, rs, picks, &mut v);
                    }
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .collect()
    });
    for r in results {
        v.compared += r.compared;
        v.failed += r.failed;
        v.oracle_verified += r.oracle_verified;
        v.oracle_inconclusive += r.oracle_inconclusive;
        v.oracle_failed += r.oracle_failed;
        for n in r.notes {
            if v.notes.len() < 8 {
                v.notes.push(n);
            }
        }
    }
    digest.hex()
}

fn trim(s: &str) -> &str {
    &s[..s.len().min(160)]
}

fn check_source(
    stream: &Stream,
    c: usize,
    src: usize,
    recs: &[&Rec],
    picks: &[usize],
    v: &mut Verdicts,
) {
    let prog = parse(&stream.sources[src]).expect("stream sources parse");
    let a = Analysis::new(&prog);
    let lines = line_table(&prog);
    for (i, r) in recs.iter().enumerate() {
        let req = &stream.reqs[r.idx];
        let j = Json::parse(&r.resp).unwrap_or(Json::Null);
        v.compared += 1;
        if j.get("degraded").and_then(Json::as_bool) != Some(false) {
            v.fail(format!(
                "client {c} request {}: degraded or malformed answer",
                r.idx
            ));
            continue;
        }
        let got = response_lines(&j).unwrap_or_default();
        let want: Vec<(Vec<u32>, _)> = req
            .criteria
            .iter()
            .map(|&l| {
                let s = agrawal_slice(&a, &Criterion::at_stmt(prog.at_line(l)));
                let mut ls: Vec<u32> = s.stmts.iter().map(|st| lines[st.index()]).collect();
                ls.sort_unstable();
                (ls, s)
            })
            .collect();
        if got.len() != want.len() || got.iter().zip(&want).any(|(g, w)| *g != w.0) {
            v.fail(format!(
                "client {c} request {}: slice differs from a fresh analysis",
                r.idx
            ));
        }
        if picks.contains(&i) {
            if let Some((_, s)) = want.first() {
                v.oracle(&prog, s, &format!("client {c} request {}", r.idx));
            }
        }
    }
}

/// Per-class latency samples of a pass, milliseconds.
struct Classes {
    all: Samples,
    edit: Samples,
    cold_first: Samples,
    restore_first: Samples,
}

fn classes(inputs: &Inputs, pass: &Pass) -> Classes {
    let (mut all, mut edit, mut cold, mut restore) = (vec![], vec![], vec![], vec![]);
    for (c, recs) in pass.recs.iter().enumerate() {
        let reqs = &inputs.streams[c].reqs;
        for (i, r) in recs.iter().enumerate() {
            all.push(r.ms);
            match reqs[r.idx].class {
                Class::Edit => edit.push(r.ms),
                Class::Load => {
                    if let Some(next) = recs.get(i + 1) {
                        let restored = Json::parse(&r.resp)
                            .ok()
                            .and_then(|j| j.get("restored").and_then(Json::as_bool))
                            == Some(true);
                        let both = r.ms + next.ms;
                        if restored {
                            restore.push(both)
                        } else {
                            cold.push(both)
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Classes {
        all: Samples::new(all),
        edit: Samples::new(edit),
        cold_first: Samples::new(cold),
        restore_first: Samples::new(restore),
    }
}

fn sessions(cfg: &Config) -> usize {
    ((cfg.seconds * 8.0 / cfg.scale.max(0.05)).ceil() as usize).clamp(8, 4000)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome {
        workload: "serve-mixed",
        ..Outcome::default()
    };
    if !cfg.trace {
        let ((inp, mut p, rss), setup) = timed_setups(
            "program pools and request streams, edits applied to find every expected key",
            || inputs(cfg, sessions(cfg)),
            |inp| {
                let (p, _) = pass(cfg, &inp, false, cfg.seconds);
                (inp, p, crate::peak_rss_mb())
            },
        );
        out.attempted = p.recs.iter().map(Vec::len).sum();
        out.digest = verify(cfg, &inp, &mut p, &mut out.verdicts);
        let k = classes(&inp, &p);
        let n = k.all.len();
        out.metrics = vec![
            setup,
            Metric::new("peak_rss_mb", rss, "MB", 1, crate::RSS_NOTE),
            Metric::new(
                "throughput_per_s",
                n as f64 / p.wall_s,
                "1/s",
                n,
                "serve_req_per_s: requests answered per second, two clients",
            ),
            Metric::new(
                "p50_ms",
                k.all.quantile(0.5),
                "ms",
                n,
                "serve_p50_ms: Pool::round_trip, all requests",
            ),
            Metric::new(
                "p90_ms",
                k.all.quantile(0.9),
                "ms",
                n,
                report::tail_note("serve p90", &k.all, 0.9),
            ),
        ];
        out.extra = extra_serve(&k, p.counters);
        return out;
    }

    let inp = inputs(cfg, sessions(cfg));
    let half = cfg.seconds / 2.0;
    let (mut plain, _) = pass(cfg, &inp, false, half);
    let (mut traced, profile) = pass(cfg, &inp, true, half);
    let profile = profile.expect("traced pass records spans");
    out.attempted = plain.recs.iter().chain(&traced.recs).map(Vec::len).sum();
    out.digest = verify(cfg, &inp, &mut plain, &mut out.verdicts);
    let traced_digest = verify(
        &Config {
            corrupt: false,
            ..cfg.clone()
        },
        &inp,
        &mut traced,
        &mut out.verdicts,
    );
    if traced_digest != out.digest {
        out.verdicts
            .fail("traced pass answered differently from the untraced pass".to_owned());
    }
    let k = classes(&inp, &plain);
    let service = Samples::new(
        [
            "serve.load_service",
            "serve.slice_service",
            "serve.edit_service",
        ]
        .iter()
        .flat_map(|n| profile.durations_ms(n).values().to_vec())
        .collect(),
    );
    let (cache_hit, evictions, store_hit) = plain.counters;
    let mut given = Given::new();
    // Queue wait is a difference of two passes' quantiles: the untraced
    // pass's round trips minus the traced pass's direct `handle_line` calls
    // (made with mirror work alongside) — not a per-request difference.
    given.insert(
        "serve.queue_wait_p50_ms",
        (k.all.quantile(0.5) - service.quantile(0.5)).max(0.0),
    );
    given.insert(
        "serve.queue_wait_p99_ms",
        (k.all.quantile(0.99) - service.quantile(0.99)).max(0.0),
    );
    given.insert(
        "trace.mirror_gap_ratio",
        profile.mirror_gap(
            &[("serve.slice_service", 1.0), ("serve.edit_service", 1.0)],
            &PROBES,
        ),
    );
    given.insert("serve.cache_hit_ratio", cache_hit);
    given.insert("serve.evictions", evictions);
    given.insert("store.hit_ratio", store_hit);
    given.insert("serve.request_p99_ms", k.all.quantile(0.99));
    given.insert("serve.edit_p90_ms", k.edit.quantile(0.9));
    given.insert("serve.cold_first_p90_ms", k.cold_first.quantile(0.9));
    given.insert("serve.restore_first_p90_ms", k.restore_first.quantile(0.9));
    let traced_p50 = profile.durations_ms(OP).quantile(0.5);
    let untraced_p50 = k.all.quantile(0.5);
    given.insert(
        "trace.overhead_ratio",
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50
        } else {
            0.0
        },
    );
    report::per_layer(&mut out, cfg, &profile, given);
    out.extra = extra_serve(&k, plain.counters);
    out
}

/// The serve-only end-to-end numbers, with their sample counts.
fn extra_serve(k: &Classes, (cache_hit, evictions, store_hit): (f64, f64, f64)) -> Vec<Metric> {
    vec![
        Metric::new(
            "serve_p99_ms",
            k.all.quantile(0.99),
            "ms",
            k.all.len(),
            report::tail_note("all requests", &k.all, 0.99),
        ),
        Metric::new(
            "serve_edit_p90_ms",
            k.edit.quantile(0.9),
            "ms",
            k.edit.len(),
            report::tail_note("edit requests", &k.edit, 0.9),
        ),
        Metric::new(
            "serve_edit_p99_ms",
            k.edit.quantile(0.99),
            "ms",
            k.edit.len(),
            report::tail_note("edit requests", &k.edit, 0.99),
        ),
        Metric::new(
            "serve_cold_first_p90_ms",
            k.cold_first.quantile(0.9),
            "ms",
            k.cold_first.len(),
            report::tail_note("load + first slice, never-seen program", &k.cold_first, 0.9),
        ),
        Metric::new(
            "serve_restore_first_p90_ms",
            k.restore_first.quantile(0.9),
            "ms",
            k.restore_first.len(),
            report::tail_note(
                "load + first slice, restored from the store",
                &k.restore_first,
                0.9,
            ),
        ),
        Metric::new(
            "serve_cache_hit_ratio",
            cache_hit,
            "ratio",
            1,
            "Engine::cache_stats",
        ),
        Metric::new(
            "serve_evictions",
            evictions,
            "count",
            1,
            "Engine::cache_stats",
        ),
        Metric::new(
            "store_hit_ratio",
            store_hit,
            "ratio",
            1,
            "SnapshotStore::stats",
        ),
    ]
}
