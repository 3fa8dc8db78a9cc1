//! Spans recorded by the benchmark around calls into each layer.
//!
//! One span per call: name, start, end, the span that caused it, and
//! the upload it belongs to. Spans stay in memory and are aggregated
//! when the run ends. A layer's self time is its span minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its recorder; `ROOT` marks "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub upload: u32,
}

/// Collects spans. A disabled recorder reads no clock and stores
/// nothing, so the same pipeline code runs with tracing on and off and
/// the difference between the two is the tracing overhead.
pub struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created (0 when disabled).
    pub fn now(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Opens a span starting now and returns it with its start time (the
    /// cursor for the first [`lap`](Self::lap) inside it); close it with
    /// [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, upload: u32, parent: SpanId) -> (SpanId, u64) {
        if self.origin.is_none() {
            return (ROOT, 0);
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            upload,
        });
        ((self.spans.len() - 1) as SpanId, now)
    }

    pub fn end(&mut self, id: SpanId) {
        if self.origin.is_some() {
            self.spans[id as usize].end_ns = self.now();
        }
    }

    /// Records a span from `*cursor` to now and moves the cursor to now:
    /// back-to-back stages cost one clock read each.
    pub fn lap(&mut self, name: &'static str, upload: u32, parent: SpanId, cursor: &mut u64) {
        if self.origin.is_none() {
            return;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: *cursor,
            end_ns: now,
            parent,
            upload,
        });
        *cursor = now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals for all spans of one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children are not
/// subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(i as SpanId)) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered
        })
        .collect()
}

/// Per-name totals, self times included.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.total_ns += s.end_ns.saturating_sub(s.start_ns);
        layer.self_ns += self_ns;
    }
    layers
}

/// The spans of every `every`-th upload as a JSON array, for
/// `out/<workload>.trace.json`.
pub fn sample_json(spans: &[Span], every: u32) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (i, s) in spans.iter().enumerate() {
        if s.upload % every != 0 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"upload\":{}}}",
            s.name, s.start_ns, s.end_ns, s.upload
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            upload: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("upload", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 30, 60, 0),
            span("inner", 35, 40, 2),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("upload", 100, 200, ROOT),
            span("a", 90, 150, 0),  // starts before the parent
            span("b", 140, 180, 0), // overlaps a
            span("c", 190, 250, 0), // ends after the parent
        ];
        // Covered: [100,150] ∪ [150,180] ∪ [190,200] = 90.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn aggregate_sums_by_name_and_parts_sum_to_the_root() {
        let spans = vec![
            span("upload", 0, 100, ROOT),
            span("a", 0, 40, 0),
            span("b", 40, 90, 0),
            span("upload", 100, 150, ROOT),
            span("a", 100, 120, 3),
        ];
        let layers = aggregate(&spans);
        assert_eq!(layers["a"].calls, 2);
        assert_eq!(layers["a"].self_ns, 60);
        assert_eq!(layers["upload"].total_ns, 150);
        let parts: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(parts, layers["upload"].total_ns);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        let (root, mut cursor) = rec.begin("upload", 0, ROOT);
        rec.lap("a", 0, root, &mut cursor);
        rec.end(root);
        assert!(rec.spans().is_empty());
        assert_eq!(cursor, 0);
    }

    #[test]
    fn laps_tile_the_parent_without_gaps() {
        let mut rec = Recorder::new(true);
        let (root, mut cursor) = rec.begin("upload", 7, ROOT);
        rec.lap("a", 7, root, &mut cursor);
        rec.lap("b", 7, root, &mut cursor);
        rec.end(root);
        let s = rec.spans();
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert!(s[0].end_ns >= s[2].end_ns);
        assert!(
            !sample_json(s, 64).contains("upload"),
            "upload 7 is not sampled"
        );
        assert!(sample_json(s, 7).contains("\"upload\":7"));
    }
}
