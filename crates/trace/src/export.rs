//! Exporters: deterministic JSONL and Chrome trace-event JSON.

use crate::event::{TraceRecord, TripTrace};
use serde::Value;

/// One JSON line per trace, in commit-sequence order, terminated by a
/// newline. Deterministic: contains only [`TripTrace`] fields, never
/// wall-clock spans or worker ids, so the bytes are identical at any
/// worker count.
#[must_use]
pub fn to_jsonl(traces: &[&TripTrace]) -> String {
    let mut out = String::new();
    for trace in traces {
        out.push_str(&serde_json::to_string(trace).expect("traces serialize infallibly"));
        out.push('\n');
    }
    out
}

fn number(v: u64) -> Value {
    Value::Number(serde::Number::PosInt(v))
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Chrome trace-event JSON (the `chrome://tracing` / Perfetto array
/// format) for a set of finished traces.
///
/// Each captured stage span becomes a complete (`"ph": "X"`) duration
/// event; `tid` is the stage worker (0 = the serial/commit thread), so
/// a `--jobs N` run renders as N parallel swimlanes feeding the
/// committer. Each trace also gets an instant event at its final span
/// carrying the outcome, which links the swimlane back to the JSONL
/// record via `trace_id` and `seq`.
#[must_use]
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events = Vec::new();
    for record in records {
        let tid = record.worker.map_or(0, |w| w + 1);
        for span in &record.spans {
            events.push(object(vec![
                ("name", Value::String(span.stage.name().to_string())),
                ("ph", Value::String("X".to_string())),
                (
                    "ts",
                    Value::Number(serde::Number::Float(span.start_ns as f64 / 1000.0)),
                ),
                (
                    "dur",
                    Value::Number(serde::Number::Float(span.dur_ns as f64 / 1000.0)),
                ),
                ("pid", number(1)),
                ("tid", number(tid as u64)),
                (
                    "args",
                    object(vec![
                        ("seq", number(record.trace.seq)),
                        (
                            "trace_id",
                            Value::String(format!("{:#x}", record.trace.trace_id)),
                        ),
                    ]),
                ),
            ]));
        }
        let outcome_ts = record
            .spans
            .last()
            .map_or(0.0, |s| s.end_ns() as f64 / 1000.0);
        events.push(object(vec![
            (
                "name",
                Value::String(crate::narrative::outcome_label(&record.trace.outcome)),
            ),
            ("ph", Value::String("i".to_string())),
            ("s", Value::String("t".to_string())),
            ("ts", Value::Number(serde::Number::Float(outcome_ts))),
            ("pid", number(1)),
            ("tid", number(tid as u64)),
            (
                "args",
                object(vec![
                    ("seq", number(record.trace.seq)),
                    (
                        "trace_id",
                        Value::String(format!("{:#x}", record.trace.trace_id)),
                    ),
                    ("events", number(record.trace.events.len() as u64)),
                ]),
            ),
        ]));
    }
    serde_json::to_string(&Value::Array(events)).expect("values serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceOutcome};
    use busprobe_telemetry::{Stage, StageSpan};

    fn trace(seq: u64) -> TripTrace {
        TripTrace {
            trace_id: 0xdead_beef,
            seq,
            samples: 4,
            events: vec![TraceEvent::Clustering { clusters: 2 }],
            outcome: TraceOutcome::Committed {
                visits: 2,
                observations: 1,
            },
            wal_seq: Some(seq),
        }
    }

    #[test]
    fn jsonl_is_one_line_per_trace() {
        let (a, b) = (trace(0), trace(1));
        let out = to_jsonl(&[&a, &b]);
        let lines: Vec<&str> = out.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[1].contains("\"seq\":1"));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn chrome_trace_emits_spans_and_instants() {
        let record = TraceRecord {
            trace: trace(3),
            worker: Some(1),
            spans: vec![StageSpan {
                stage: Stage::Matching,
                start_ns: 2000,
                dur_ns: 1000,
            }],
        };
        let json = to_chrome_trace(&[record]);
        assert!(json.starts_with('['), "{json}");
        let name = format!("\"name\":\"{}\"", Stage::Matching.name());
        assert!(json.contains(&name), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"tid\":2"), "worker 1 maps to tid 2: {json}");
    }
}
