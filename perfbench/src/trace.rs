//! The traced run's span recorder.
//!
//! The benchmark opens a span around every call it makes into a layer
//! (name, start, end, parent, request id), grafts under it the span tree
//! the program itself recorded for that call (`ExecEnv::trace`,
//! `ServiceConfig::trace`), keeps everything in memory and writes it out
//! once the run ends. Layer self times are derived from these trees.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use obs::{SpanNode, SpanTree, Stage};

/// One recorded span, on the recorder's clock.
#[derive(Clone, Debug)]
struct SpanOut {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store for one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanOut>>,
}

/// A span opened by [`Tracer::open`]; record it with [`Tracer::close`].
#[derive(Debug)]
pub struct OpenSpan {
    /// The span's id, to parent other spans under it.
    pub id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start: Instant,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The recorder's clock origin. Program trace contexts created with
    /// `obs::TraceCtx::enabled_since(epoch)` share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span.
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>, request: u64) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Closes and records a span; returns its duration in seconds.
    pub fn close(&self, span: OpenSpan) -> f64 {
        let end = Instant::now();
        let out = SpanOut {
            id: span.id,
            parent: span.parent,
            request: span.request,
            name: span.name,
            start_ns: self.ns(span.start),
            end_ns: self.ns(end),
        };
        self.push(vec![out]);
        (end - span.start).as_secs_f64()
    }

    /// Copies a program span tree under `parent`. `tree_epoch` is the
    /// instant the tree's `start_ns` values count from.
    pub fn graft(&self, tree: &SpanTree, parent: u64, request: u64, tree_epoch: Instant) {
        let offset = self.ns(tree_epoch);
        let mut out = Vec::new();
        for root in &tree.roots {
            self.graft_node(root, parent, request, offset, &mut out);
        }
        self.push(out);
    }

    fn graft_node(
        &self,
        node: &SpanNode,
        parent: u64,
        request: u64,
        offset: u64,
        out: &mut Vec<SpanOut>,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        out.push(SpanOut {
            id,
            parent: Some(parent),
            request,
            name: format!("{}:{}", node.span.stage.name(), node.span.label),
            start_ns: offset + node.span.start_ns,
            end_ns: offset + node.span.end_ns(),
        });
        for child in &node.children {
            self.graft_node(child, id, request, offset, out);
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON document:
    /// `{"spans": [[id, parent, request, start_ns, end_ns, name], …]}`
    /// with `parent` 0 for a root.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.lock();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"spans\": [\n")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "[{}, {}, {}, {}, {}, \"{}\"]{sep}",
                s.id,
                s.parent.unwrap_or(0),
                s.request,
                s.start_ns,
                s.end_ns,
                obs::json_escape(&s.name)
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, spans: Vec<SpanOut>) {
        self.lock().extend(spans);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanOut>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking run")
    }
}

/// Runs `f` inside a span when tracing; returns its result and seconds.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => {
            let span = t.open(name, parent, 0);
            let out = f();
            (out, t.close(span))
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (children of parallel workers may overlap; their
/// union is subtracted once).
pub fn self_ns(node: &SpanNode) -> u64 {
    let (lo, hi) = (node.span.start_ns, node.span.end_ns());
    let mut iv: Vec<(u64, u64)> = node
        .children
        .iter()
        .map(|c| (c.span.start_ns.max(lo), c.span.end_ns().min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (hi - lo).saturating_sub(covered)
}

/// Sum of self times of every span of the given stages in a tree.
pub fn stage_self_ns(tree: &SpanTree, stages: &[Stage]) -> u64 {
    fn walk(node: &SpanNode, stages: &[Stage], acc: &mut u64) {
        if stages.contains(&node.span.stage) {
            *acc += self_ns(node);
        }
        for c in &node.children {
            walk(c, stages, acc);
        }
    }
    let mut acc = 0;
    for r in &tree.roots {
        walk(r, stages, &mut acc);
    }
    acc
}

/// Whether a query's tree shows the compiled path: an aggregate span
/// labelled `compiled` (serial) or `compiled parallel xN`.
pub fn ran_compiled(tree: &SpanTree) -> bool {
    tree.flatten().iter().any(|s| {
        s.stage == Stage::Aggregate
            && (s.label == "compiled" || s.label.starts_with("compiled parallel"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::SpanRecord;

    fn rec(id: u64, parent: Option<u64>, stage: Stage, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            stage,
            label: String::new(),
            tid: 0,
            start_ns: start,
            duration_ns: dur,
            rows_in: 0,
            rows_out: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = SpanTree::from_records(vec![
            rec(1, None, Stage::Query, 0, 100),
            rec(2, Some(1), Stage::Aggregate, 10, 30),
            rec(3, Some(1), Stage::Aggregate, 20, 30),
            rec(4, Some(1), Stage::Parse, 70, 10),
        ]);
        let root = &tree.roots[0];
        // Children cover [10, 50) and [70, 80): 50 ns of 100.
        assert_eq!(self_ns(root), 50);
        assert_eq!(stage_self_ns(&tree, &[Stage::Query]), 50);
        assert_eq!(stage_self_ns(&tree, &[Stage::Aggregate]), 60);
        assert!(!ran_compiled(&tree));
    }
}
