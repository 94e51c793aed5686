//! Self time: a span's duration minus the part its children cover.

use cmo_benchmark::trace::{self_times_ns, spans_json, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 0,
        counts: Vec::new(),
    }
}

#[test]
fn overlapping_children_are_counted_once() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)), // overlaps `a` on 20..30 (worker threads)
        span("c", 70, 80, Some(0)),
    ];
    // Covered: 10..50 and 70..80 = 50 of 100.
    assert_eq!(self_times_ns(&spans), [50, 20, 30, 10]);
}

#[test]
fn children_are_clipped_to_the_parent_and_grandchildren_stay_out() {
    let spans = [
        span("root", 100, 200, None),
        span("early", 50, 120, Some(0)), // only 100..120 lies inside
        span("stage", 150, 190, Some(0)),
        span("item", 160, 170, Some(2)), // charged to `stage`, not to `root`
    ];
    assert_eq!(self_times_ns(&spans), [40, 70, 30, 10]);
}

#[test]
fn tracer_nests_spans_and_sums_direct_children() {
    let tracer = Tracer::new();
    let root = tracer.begin_root("op", 7);
    tracer.scope("stage", root, |stage| {
        tracer.scope("item", stage, |_| ());
        tracer.scope("item", stage, |_| ());
    });
    let stage = tracer.begin("stage", root);
    tracer.end_with(stage, vec![("compactions", 3)]);
    tracer.end(root);

    let spans = tracer.spans();
    assert_eq!(spans.len(), 5);
    assert!(spans.iter().all(|s| s.op == 7), "one operation, one id");
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[4].counts, [("compactions", 3)]);
    let totals = tracer.child_seconds(root);
    assert_eq!(totals.keys().copied().collect::<Vec<_>>(), ["stage"]);
    let json = spans_json(&spans);
    assert_eq!(json.matches("\"self_ns\"").count(), 5);
    assert!(json.contains("\"counts\": {\"compactions\": 3}"));
}
