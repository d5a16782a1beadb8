//! Span bookkeeping: self time is duration minus the part children cover.

use std::time::{Duration, Instant};

use watz_benchmark::trace::{layer_self_ms, self_times, Span, Tracer};

fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64, layer: &'static str) -> Span {
    Span {
        id,
        name: "s",
        layer,
        op_id: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn nested_children_are_subtracted_once_per_level() {
    // root 0..100; child 10..60; grandchild 20..30.
    let spans = [
        span(0, None, 0, 100, "a"),
        span(1, Some(0), 10, 60, "b"),
        span(2, Some(1), 20, 30, "c"),
    ];
    assert_eq!(self_times(&spans), vec![50, 40, 10]);
    let by_layer = layer_self_ms(&spans);
    assert_eq!(by_layer["a"], 50e-6);
    assert_eq!(by_layer["b"], 40e-6);
    assert_eq!(by_layer["c"], 10e-6);
}

#[test]
fn overlapping_children_are_counted_once() {
    // children 10..50 and 30..70 cover 10..70 = 60, not 80.
    let spans = [
        span(0, None, 0, 100, "a"),
        span(1, Some(0), 10, 50, "b"),
        span(2, Some(0), 30, 70, "b"),
    ];
    assert_eq!(self_times(&spans)[0], 40);
}

#[test]
fn children_outside_the_parent_are_clipped() {
    // A child running 90..150 covers only 90..100 of the parent; a child
    // wholly inside another adds nothing.
    let spans = [
        span(0, None, 0, 100, "a"),
        span(1, Some(0), 90, 150, "b"),
        span(2, Some(0), 0, 40, "b"),
        span(3, Some(0), 10, 20, "b"),
    ];
    assert_eq!(self_times(&spans)[0], 50);
    // Children that cover everything leave zero, never a negative.
    let spans = [span(0, None, 10, 20, "a"), span(1, Some(0), 0, 100, "b")];
    assert_eq!(self_times(&spans)[0], 0);
}

#[test]
fn an_off_tracer_records_nothing() {
    let mut tr = Tracer::off();
    let s = tr.begin("x", "layer", 1, None);
    assert_eq!(s, None);
    tr.end(s);
    tr.add_phases(s, 1, &[("p", "layer", Duration::from_millis(1))]);
    assert!(tr.spans().is_empty());
}

#[test]
fn phases_are_laid_end_to_end_inside_their_parent() {
    let mut tr = Tracer::on(Instant::now(), 0);
    let load = tr.begin("load", "runtime", 7, None);
    std::thread::sleep(Duration::from_millis(3));
    tr.end(load);
    tr.add_phases(
        load,
        7,
        &[
            ("one", "x", Duration::from_millis(1)),
            ("two", "y", Duration::from_millis(1)),
        ],
    );
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].start_ns, spans[0].start_ns);
    assert_eq!(spans[2].start_ns, spans[1].end_ns);
    assert!(spans.iter().all(|s| s.op_id == 7));
    assert_eq!(spans[1].parent, load);
    let selfs = self_times(spans);
    assert_eq!(selfs[0], (spans[0].end_ns - spans[0].start_ns) - 2_000_000);
}

#[test]
fn merged_lanes_keep_distinct_ids() {
    let origin = Instant::now();
    let mut a = Tracer::on(origin, 0);
    let mut b = Tracer::on(origin, 1);
    let sa = a.begin("a", "l", 0, None);
    a.end(sa);
    let sb = b.begin("b", "l", 0, None);
    b.end(sb);
    a.merge(b);
    assert_eq!(a.spans().len(), 2);
    assert_ne!(a.spans()[0].id, a.spans()[1].id);
}
