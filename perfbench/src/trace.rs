//! Span trees for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer, with [`dgl_stats::SpanCollector`]: one track per unit
//! of work (a cell, a serve job, a fuzz case), so the spans of one unit
//! share the track id and the unit's id in `detail`. The collector
//! records nesting depth, not parents; [`link`] recovers each span's
//! parent from containment on its track, and [`self_times`] subtracts
//! the part of each span its children cover.

use dgl_stats::{Json, SpanRecord};
use std::collections::BTreeMap;

/// A span with its parent resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Linked {
    /// The recorded span.
    pub span: SpanRecord,
    /// Index of the enclosing span in the linked list, if any.
    pub parent: Option<usize>,
}

impl Linked {
    fn end_us(&self) -> u64 {
        self.span.start_us + self.span.dur_us
    }
}

/// Orders spans by `(track, start, depth)` and links each to the
/// innermost earlier span on its track whose interval contains it.
pub fn link(spans: &[SpanRecord]) -> Vec<Linked> {
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| (s.track, s.start_us, s.depth, u64::MAX - s.dur_us));
    let mut out: Vec<Linked> = Vec::with_capacity(sorted.len());
    let mut stack: Vec<usize> = Vec::new();
    for span in sorted {
        while let Some(&top) = stack.last() {
            let open = &out[top];
            let contains = open.span.track == span.track
                && span.start_us >= open.span.start_us
                && span.start_us + span.dur_us <= open.end_us();
            if contains {
                break;
            }
            stack.pop();
        }
        out.push(Linked {
            parent: stack.last().copied(),
            span,
        });
        stack.push(out.len() - 1);
    }
    out
}

/// Self time of every linked span in microseconds: its duration minus
/// the union of its children's intervals, clipped to its own.
pub fn self_times(linked: &[Linked]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); linked.len()];
    for l in linked {
        if let Some(p) = l.parent {
            children[p].push((l.span.start_us, l.end_us()));
        }
    }
    linked
        .iter()
        .zip(children)
        .map(|(l, mut kids)| {
            kids.sort_unstable();
            let (lo, hi) = (l.span.start_us, l.end_us());
            let mut covered = 0;
            let mut reach = lo;
            for (s, e) in kids {
                let (s, e) = (s.max(reach), e.min(hi));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            l.span.dur_us - covered
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let linked = link(spans);
    let mut out = BTreeMap::new();
    for (l, own) in linked.iter().zip(self_times(&linked)) {
        *out.entry(l.span.name.clone()).or_insert(0.0) += own as f64 * 1e-6;
    }
    out
}

/// Serializes linked spans with explicit start, end, parent and self
/// time (`perfbench-spans` v1).
pub fn to_json(spans: &[SpanRecord]) -> Json {
    let linked = link(spans);
    let own = self_times(&linked);
    let mut arr = Json::array();
    for (i, (l, own)) in linked.iter().zip(own).enumerate() {
        let parent = l.parent.map_or(Json::Null, |p| Json::uint(p as u64));
        arr = arr.push(
            Json::object()
                .field("index", Json::uint(i as u64))
                .field("name", Json::str(l.span.name.clone()))
                .field("id", Json::str(l.span.detail.clone()))
                .field("track", Json::uint(u64::from(l.span.track)))
                .field("start_us", Json::uint(l.span.start_us))
                .field("end_us", Json::uint(l.end_us()))
                .field("parent", parent)
                .field("self_us", Json::uint(own)),
        );
    }
    Json::object()
        .field("schema", Json::str("perfbench-spans"))
        .field("version", Json::uint(1))
        .field("spans", arr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, track: u32, start: u64, dur: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            track,
            start_us: start,
            dur_us: dur,
            depth,
            detail: format!("unit-{track}"),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("case", 0, 0, 100, 0),
            span("generate", 0, 0, 10, 1),
            span("cosim", 0, 10, 60, 1),
            span("build_core", 0, 12, 5, 2),
            span("two_secret", 0, 75, 20, 1),
            // Another unit on another track, starting inside the first.
            span("case", 1, 50, 40, 0),
        ];
        let linked = link(&spans);
        let names: Vec<&str> = linked.iter().map(|l| l.span.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "case",
                "generate",
                "cosim",
                "build_core",
                "two_secret",
                "case"
            ]
        );
        let parents: Vec<Option<usize>> = linked.iter().map(|l| l.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), Some(0), None]);
        assert_eq!(self_times(&linked), [10, 10, 55, 5, 20, 40]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["case"] - 50e-6).abs() < 1e-12);
        assert!((by_name["cosim"] - 55e-6).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Children recorded explicitly (queue wait, run) may abut or
        // overlap by a rounding microsecond; coverage is a union.
        let spans = vec![
            span("job", 0, 0, 100, 0),
            span("queue", 0, 0, 40, 1),
            span("run", 0, 39, 50, 1),
        ];
        let linked = link(&spans);
        assert_eq!(self_times(&linked), [11, 40, 50]);
    }

    #[test]
    fn json_carries_parent_and_self_time() {
        let spans = vec![span("cell", 3, 5, 10, 0), span("run", 3, 6, 8, 1)];
        let doc = to_json(&spans);
        let arr = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(arr[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(arr[0].get("self_us").and_then(Json::as_u64), Some(2));
        assert_eq!(arr[1].get("end_us").and_then(Json::as_u64), Some(14));
        assert_eq!(arr[0].get("id").and_then(Json::as_str), Some("unit-3"));
        assert!(Json::parse(&doc.to_string()).is_ok());
    }
}
