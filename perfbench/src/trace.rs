//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions in
//! spans: a name, start and end, the enclosing span, and the op the call
//! belongs to. Every client thread owns one [`Tracer`]; nothing is shared
//! or written while the run measures. [`Profile::merge`] combines the
//! threads' spans when the run ends, computes each span's self time (its
//! duration minus the part its children cover) and writes them out.
//!
//! Two kinds of root span exist. An `op` root wraps exactly the work the
//! untraced run times, so its self time is the part of an op no layer span
//! covers. A `mirror` root wraps extra calls the traced run makes on mirror
//! objects — the same public builders an opaque call runs internally — to
//! split work the op performs inside one call (or on another thread) into
//! layers; mirror work never counts toward op time.

use crate::stats::Samples;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Root span around the measured work of one op.
pub const OP: &str = "op";
/// Root span around mirror calls made for the breakdown only.
pub const MIRROR: &str = "mirror";

/// One finished span, with its self time.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name (`"pdg.merge"`), or a root name.
    pub name: &'static str,
    /// Op the span belongs to (unique within the run).
    pub op: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// Name of the outermost enclosing span ([`OP`] or [`MIRROR`]).
    pub root: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Recording thread.
    pub thread: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Open {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A per-thread span recorder; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    op: Cell<u64>,
    spans: RefCell<Vec<Open>>,
    stack: RefCell<Vec<usize>>,
    counts: RefCell<Vec<(&'static str, f64)>>,
}

impl Tracer {
    /// A recorder for one thread; all tracers of a run share `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counts: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.enter(name);
        f()
    }

    /// Opens a span that closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { t: self, idx: None };
        }
        let mut spans = self.spans.borrow_mut();
        let parent = self.stack.borrow().last().copied();
        spans.push(Open {
            name,
            op: self.op.get(),
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        let idx = spans.len() - 1;
        self.stack.borrow_mut().push(idx);
        SpanGuard {
            t: self,
            idx: Some(idx),
        }
    }

    /// Records one sample of a per-layer count (edges, bytes, rounds…).
    pub fn count(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.borrow_mut().push((name, value));
        }
    }
}

/// An open span; dropping it records the end time.
pub struct SpanGuard<'t> {
    t: &'t Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            self.t.stack.borrow_mut().pop();
            self.t.spans.borrow_mut()[idx].end_ns = self.t.now_ns();
        }
    }
}

/// The merged spans and counts of a run.
#[derive(Default)]
pub struct Profile {
    /// Every span, parents before children within a thread.
    pub spans: Vec<Span>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Profile {
    /// Merges the threads' recorders, computing self times.
    pub fn merge(tracers: Vec<Tracer>) -> Profile {
        let mut p = Profile::default();
        for t in tracers {
            let open = t.spans.into_inner();
            let base = p.spans.len();
            let mut child_ns = vec![0u64; open.len()];
            for s in &open {
                if let Some(parent) = s.parent {
                    child_ns[parent] += s.end_ns - s.start_ns;
                }
            }
            for (i, s) in open.iter().enumerate() {
                let root = match s.parent {
                    None => s.name,
                    Some(parent) => p.spans[base + parent].root,
                };
                p.spans.push(Span {
                    name: s.name,
                    op: s.op,
                    parent: s.parent.map(|x| base + x),
                    root,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    self_ns: (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
                    thread: t.thread,
                });
            }
            for (name, v) in t.counts.into_inner() {
                p.counts.entry(name).or_default().push(v);
            }
        }
        p
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_owned();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Samples {
        Samples::new(self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect())
    }

    /// Mean self time per call of `name`, in milliseconds (`0.0` when the
    /// layer was never called on this workload).
    pub fn self_ms_per_call(&self, name: &str) -> f64 {
        let (n, ns) = self
            .named(name)
            .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.self_ns));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Samples of a recorded count.
    pub fn count_samples(&self, name: &str) -> Samples {
        Samples::new(self.counts.get(name).cloned().unwrap_or_default())
    }

    /// Share of op time no layer span covers: the self time of the [`OP`]
    /// roots over their total duration.
    pub fn unattributed_ratio(&self) -> f64 {
        let (own, total) = self
            .named(OP)
            .fold((0u64, 0u64), |(o, t), s| (o + s.self_ns, t + s.dur_ns()));
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Share of the time of the calls an op makes in one piece that the
    /// mirror's spans for the same op do not cover. `opaque` names those
    /// calls' spans under [`OP`] roots, each with a weight: the threads the
    /// call may use, so that a parallel call counts its thread time. The
    /// mirror covers an op with the spans directly under its [`MIRROR`]
    /// roots, less the `probes` below them (extra calls made only for the
    /// breakdown). Per op the uncovered part is clamped at 0; ops without
    /// an opaque span or a mirror are skipped. `0.0` when none is left.
    pub fn mirror_gap(&self, opaque: &[(&str, f64)], probes: &[&str]) -> f64 {
        // Per op: opaque thread time, covered time, whether it has a mirror.
        let mut ops: BTreeMap<u64, (f64, f64, bool)> = BTreeMap::new();
        for s in &self.spans {
            let e = ops.entry(s.op).or_default();
            let dur = s.dur_ns() as f64;
            if s.root == OP {
                if let Some((_, w)) = opaque.iter().find(|(n, _)| *n == s.name) {
                    e.0 += dur * w;
                }
                continue;
            }
            if s.root != MIRROR {
                continue;
            }
            match s.parent {
                None => e.2 = true,
                Some(p) if self.spans[p].parent.is_none() => e.1 += dur,
                Some(_) => {}
            }
            if probes.contains(&s.name) {
                e.1 -= dur;
            }
        }
        let (gap, total) = ops
            .values()
            .filter(|(o, _, mirrored)| *o > 0.0 && *mirrored)
            .fold((0.0, 0.0), |(g, t), (o, c, _)| {
                (g + (o - c).max(0.0), t + o)
            });
        if total > 0.0 {
            gap / total
        } else {
            0.0
        }
    }

    /// Per span name: calls, total self milliseconds, and the share of all
    /// op time that self time represents (mirror spans have no share).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, Option<f64>)> {
        let op_ns: u64 = self.named(OP).map(Span::dur_ns).sum();
        let mut by: BTreeMap<&'static str, (usize, u64, bool)> = BTreeMap::new();
        for s in &self.spans {
            let e = by.entry(s.name).or_insert((0, 0, true));
            e.0 += 1;
            e.1 += s.self_ns;
            e.2 &= s.root == OP;
        }
        by.into_iter()
            .map(|(name, (calls, ns, in_op))| {
                let share = (in_op && op_ns > 0).then(|| ns as f64 / op_ns as f64);
                (name, calls, ns as f64 / 1e6, share)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"thread\":{}}}",
                s.name, s.op, parent, s.start_ns, s.end_ns, s.self_ns, s.thread
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_propagate() {
        let t = Tracer::new(true, Instant::now(), 0);
        t.set_op(7);
        t.span(OP, || {
            t.span("lang.parse", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.span(MIRROR, || t.span("cfg.build", || ()));
        t.count("dataflow.data_edges", 3.0);
        let p = Profile::merge(vec![t]);
        assert_eq!(p.spans.len(), 4);
        let op = &p.spans[0];
        let parse = &p.spans[1];
        assert_eq!(parse.parent, Some(0));
        assert_eq!(parse.root, OP);
        assert_eq!(p.spans[3].root, MIRROR);
        assert_eq!(op.self_ns, op.dur_ns() - parse.dur_ns());
        assert!(p.unattributed_ratio() < 0.5);
        assert_eq!(p.count_samples("dataflow.data_edges").mean(), 3.0);
        assert!(p.spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn mirror_gap_counts_opaque_time_the_mirror_leaves_uncovered() {
        let t = Tracer::new(true, Instant::now(), 0);
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        t.set_op(1);
        t.span(OP, || t.span("serve.slice_service", || sleep(20)));
        t.span(MIRROR, || {
            t.span("incr.with_analysis", || {
                t.span("core.fig7", || sleep(5));
                t.span("pdg.direct_closure", || sleep(30));
            })
        });
        // Op 2 has no mirror, op 3 no opaque span: both are skipped.
        t.set_op(2);
        t.span(OP, || t.span("serve.slice_service", || sleep(20)));
        t.set_op(3);
        t.span(MIRROR, || t.span("core.fig7", || sleep(1)));
        let p = Profile::merge(vec![t]);
        let gap = p.mirror_gap(&[("serve.slice_service", 1.0)], &["pdg.direct_closure"]);
        // About (20 - 5) / 20; the probe's 30 ms cover nothing.
        assert!((0.5..0.8).contains(&gap), "{gap}");
        assert_eq!(p.mirror_gap(&[("serve.slice_service", 1.0)], &[]), 0.0);
        let doubled = p.mirror_gap(&[("serve.slice_service", 2.0)], &["pdg.direct_closure"]);
        assert!(doubled > gap, "thread time widens the gap");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.span("x", || 5), 5);
        t.count("y", 1.0);
        let p = Profile::merge(vec![t]);
        assert!(p.spans.is_empty());
        assert!(p.count_samples("y").is_empty());
    }
}
