//! Spans recorded from the benchmark's own files around calls into
//! each crate's public functions. Spans stay in memory and are written
//! to `benchmark/out/trace.<workload>.json` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hlo.inline`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<SpanId>,
    /// Iteration of the workload's operation this span belongs to; all
    /// spans of one operation share it.
    pub op: u32,
    /// Counts taken at the same boundary (loader counter deltas).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// End minus start, in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder, shareable with worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a root span for iteration `op`.
    pub fn begin_root(&self, name: &'static str, op: u32) -> SpanId {
        self.push(name, None, op)
    }

    /// Opens a span caused by `parent`, in the same operation.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.push(name, Some(parent), 0)
    }

    /// Records a new span; a child takes its parent's `op`.
    fn push(&self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let op = parent.map_or(op, |p| spans[p].op);
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            counts: Vec::new(),
        });
        spans.len() - 1
    }

    /// Closes `id`.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Closes `id` and attaches counts taken at its boundary.
    pub fn end_with(&self, id: SpanId, counts: Vec<(&'static str, u64)>) {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        spans[id].counts = counts;
    }

    /// Runs `f` inside a span caused by `parent`.
    pub fn scope<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent);
        let r = f(id);
        self.end(id);
        r
    }

    /// Duration of `id` in seconds.
    #[must_use]
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.lock()[id].duration_ns() as f64 / 1e9
    }

    /// Summed duration, in seconds, of the direct children of `root`,
    /// by span name.
    #[must_use]
    pub fn child_seconds(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in self.lock().iter().filter(|s| s.parent == Some(root)) {
            *totals.entry(span.name).or_insert(0.0) += span.duration_ns() as f64 / 1e9;
        }
        totals
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover. Children may overlap each other
/// (worker threads), so the covered part is the union of their
/// intervals clipped to the parent.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Renders the spans as the `"spans"` array of `trace.json`, one span
/// per line, each with its self time.
#[must_use]
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("[");
    for (id, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        out.push_str(if id == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}",
            span.name,
            span.op,
            span.parent.map_or("null".to_owned(), |p| p.to_string()),
            span.start_ns,
            span.end_ns,
        );
        if !span.counts.is_empty() {
            out.push_str(", \"counts\": {");
            for (i, (key, value)) in span.counts.iter().enumerate() {
                let _ = write!(out, "{}\"{key}\": {value}", if i == 0 { "" } else { ", " });
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n  ]");
    out
}
