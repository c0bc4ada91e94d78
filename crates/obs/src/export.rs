//! Trace exporters: JSONL event dumps, Chrome trace-event timelines, and
//! the human-readable run summary.
//!
//! * [`to_jsonl`] — one self-describing JSON object per line; greppable and
//!   trivially ingestible by any log pipeline.
//! * [`to_chrome_trace`] — the Chrome trace-event format, loadable in
//!   `about://tracing` or [Perfetto](https://ui.perfetto.dev): each input
//!   gets its own track, stable points and queue depth render as counters.
//! * [`summary`] — the per-input lag table printed by examples and benches.

use crate::event::{StableScope, TraceEvent};
use crate::json::Json;
use crate::sink::Tracer;
use lmerge_temporal::Time;
use std::fmt::Write as _;

/// Application time as JSON: finite values as integers, the paper's ±∞ as
/// strings so they survive serialization unambiguously.
fn time_json(t: Time) -> Json {
    if t == Time::INFINITY {
        Json::from("inf")
    } else if t == Time::MIN {
        Json::from("-inf")
    } else {
        Json::from(t.0)
    }
}

/// One event as a flat JSON object (`event`, `at_us`, then per-kind fields).
fn event_json(e: &TraceEvent) -> Json {
    let mut obj = Json::object()
        .with("event", e.name())
        .with("at_us", e.at().as_micros());
    match *e {
        TraceEvent::BatchDelivered {
            input,
            elements,
            data,
            ..
        } => {
            obj.set("input", input)
                .set("elements", elements)
                .set("data", data);
        }
        TraceEvent::ElementEmitted { kind, vs, .. } => {
            obj.set("kind", kind.label()).set("vs", time_json(vs));
        }
        TraceEvent::StablePointAdvanced { scope, stable, .. } => {
            match scope {
                StableScope::Output => obj.set("scope", "output"),
                StableScope::Input(i) => obj.set("input", i),
            };
            obj.set("stable", time_json(stable));
        }
        TraceEvent::FeedbackPropagated { point, .. } => {
            obj.set("point", time_json(point));
        }
        TraceEvent::QueueDepthSampled { staged, .. } => {
            obj.set("staged", staged);
        }
        TraceEvent::MemorySampled { bytes, .. } => {
            obj.set("bytes", bytes);
        }
        TraceEvent::InputDrained { input, .. } => {
            obj.set("input", input);
        }
        TraceEvent::RunCompleted { .. } => {}
        TraceEvent::FaultInjected { input, kind, .. } => {
            obj.set("input", input).set("kind", kind.label());
        }
        TraceEvent::InputHealthChanged { input, health, .. } => {
            obj.set("input", input).set("health", health.label());
        }
        TraceEvent::CheckpointTaken {
            seq,
            entries,
            delta,
            ..
        } => {
            obj.set("seq", seq)
                .set("entries", entries)
                .set("delta", delta);
        }
    }
    obj
}

/// Serialize events as JSON-lines: one object per line, oldest first.
pub fn to_jsonl<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> String {
    let mut s = String::new();
    for e in events {
        let _ = writeln!(s, "{}", event_json(e));
    }
    s
}

/// The `trace_meta` trailer line: the ring's drop accounting, so a JSONL
/// consumer can tell a complete trace from one whose head was evicted.
pub(crate) fn trace_meta(ring: &crate::ring::EventRing) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{}",
        Json::object()
            .with("event", "trace_meta")
            .with("recorded", ring.recorded())
            .with("retained", ring.len() as u64)
            .with("dropped", ring.dropped())
    );
    s
}

/// Track id used for the merge/output lane in the Chrome trace.
const OUTPUT_TID: u32 = 0;

fn chrome_instant(name: &str, ts: u64, tid: u32, args: Json) -> Json {
    Json::object()
        .with("name", name)
        .with("ph", "i")
        .with("s", "t")
        .with("ts", ts)
        .with("pid", 0u32)
        .with("tid", tid)
        .with("args", args)
}

fn chrome_counter_on(name: &str, ts: u64, tid: u32, value: i64) -> Json {
    Json::object()
        .with("name", name)
        .with("ph", "C")
        .with("ts", ts)
        .with("pid", 0u32)
        .with("tid", tid)
        .with("args", Json::object().with("value", value))
}

fn chrome_counter(name: &str, ts: u64, value: i64) -> Json {
    chrome_counter_on(name, ts, OUTPUT_TID, value)
}

/// Serialize events as a Chrome trace-event JSON document.
///
/// Timestamps map 1:1 — the format's `ts` is microseconds, exactly our
/// virtual clock. Input `i` renders on thread `i + 1`; the merge output on
/// thread 0. Stable points, queue depth, and memory render as counters so
/// the "who lags, who catches up" story is a picture, not a log-grep.
pub fn to_chrome_trace<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> String {
    let mut trace: Vec<Json> = Vec::new();
    let mut named: Vec<u32> = Vec::new();
    let mut name_thread = |trace: &mut Vec<Json>, tid: u32, name: String| {
        if !named.contains(&tid) {
            named.push(tid);
            trace.push(
                Json::object()
                    .with("name", "thread_name")
                    .with("ph", "M")
                    .with("pid", 0u32)
                    .with("tid", tid)
                    .with("args", Json::object().with("name", name)),
            );
        }
    };
    name_thread(&mut trace, OUTPUT_TID, "merge output".to_string());

    for e in events {
        let ts = e.at().as_micros();
        match *e {
            TraceEvent::BatchDelivered {
                input,
                elements,
                data,
                ..
            } => {
                name_thread(&mut trace, input + 1, format!("input {input}"));
                trace.push(chrome_instant(
                    "batch",
                    ts,
                    input + 1,
                    Json::object().with("elements", elements).with("data", data),
                ));
            }
            TraceEvent::ElementEmitted { kind, vs, .. } => {
                trace.push(chrome_instant(
                    kind.label(),
                    ts,
                    OUTPUT_TID,
                    Json::object().with("vs", time_json(vs)),
                ));
            }
            TraceEvent::StablePointAdvanced { scope, stable, .. } => {
                let (name, tid) = match scope {
                    StableScope::Output => ("stable[output]".to_string(), OUTPUT_TID),
                    StableScope::Input(i) => {
                        name_thread(&mut trace, i + 1, format!("input {i}"));
                        (format!("stable[input {i}]"), i + 1)
                    }
                };
                if stable == Time::INFINITY || stable == Time::MIN {
                    trace.push(chrome_instant(
                        &name,
                        ts,
                        tid,
                        Json::object().with("stable", time_json(stable)),
                    ));
                } else {
                    trace.push(chrome_counter_on(&name, ts, tid, stable.0));
                }
            }
            TraceEvent::FeedbackPropagated { point, .. } => {
                trace.push(chrome_instant(
                    "feedback",
                    ts,
                    OUTPUT_TID,
                    Json::object().with("point", time_json(point)),
                ));
            }
            TraceEvent::QueueDepthSampled { staged, .. } => {
                trace.push(chrome_counter("staged batches", ts, staged as i64));
            }
            TraceEvent::MemorySampled { bytes, .. } => {
                trace.push(chrome_counter("memory bytes", ts, bytes as i64));
            }
            TraceEvent::InputDrained { input, .. } => {
                name_thread(&mut trace, input + 1, format!("input {input}"));
                trace.push(chrome_instant("drained", ts, input + 1, Json::object()));
            }
            TraceEvent::RunCompleted { .. } => {
                trace.push(chrome_instant(
                    "run complete",
                    ts,
                    OUTPUT_TID,
                    Json::object(),
                ));
            }
            TraceEvent::FaultInjected { input, kind, .. } => {
                name_thread(&mut trace, input + 1, format!("input {input}"));
                trace.push(chrome_instant(
                    &format!("fault[{}]", kind.label()),
                    ts,
                    input + 1,
                    Json::object().with("kind", kind.label()),
                ));
            }
            TraceEvent::InputHealthChanged { input, health, .. } => {
                name_thread(&mut trace, input + 1, format!("input {input}"));
                trace.push(chrome_instant(
                    &format!("health[{}]", health.label()),
                    ts,
                    input + 1,
                    Json::object().with("health", health.label()),
                ));
            }
            TraceEvent::CheckpointTaken {
                seq,
                entries,
                delta,
                ..
            } => {
                trace.push(chrome_instant(
                    if delta {
                        "checkpoint (delta)"
                    } else {
                        "checkpoint (snapshot)"
                    },
                    ts,
                    OUTPUT_TID,
                    Json::object().with("seq", seq).with("entries", entries),
                ));
            }
        }
    }

    Json::object()
        .with("displayTimeUnit", "ms")
        .with("traceEvents", Json::Array(trace))
        .render_pretty()
}

fn fmt_time(t: Time) -> String {
    format!("{t}")
}

fn fmt_lag(l: i64) -> String {
    if l == i64::MAX {
        "∞".to_string()
    } else {
        l.to_string()
    }
}

/// Render the per-input lag/delivery summary table for a finished run.
pub fn summary(tracer: &Tracer) -> String {
    let lag = tracer.lag();
    let mut s = String::new();
    let _ = writeln!(s, "== trace summary ==");
    let _ = writeln!(
        s,
        "events recorded: {} (retained {}, dropped {})",
        tracer.ring().recorded(),
        tracer.ring().len(),
        tracer.ring().dropped()
    );
    let _ = writeln!(
        s,
        "output stable point: {} (advanced at {})",
        fmt_time(lag.output_stable()),
        lag.output_stable_at()
    );

    let header = [
        "input",
        "batches",
        "data",
        "stable",
        "behind",
        "max behind",
        "ffwd",
        "caught up",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, il) in lag.inputs().iter().enumerate() {
        rows.push(vec![
            i.to_string(),
            il.batches.to_string(),
            il.delivered.to_string(),
            fmt_time(il.stable),
            fmt_lag(lag.behind(i).unwrap_or(0)),
            fmt_lag(il.max_behind),
            il.fast_forwards.to_string(),
            il.caught_up_at
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in &rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.chars().count());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>width$}", width = *w + c.len() - c.chars().count()))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let _ = writeln!(
        s,
        "{}",
        line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in &rows {
        let _ = writeln!(s, "{}", line(row));
    }
    match lag.straggler() {
        Some((i, l)) => {
            let _ = writeln!(s, "straggler: input {i}, {} behind", fmt_lag(l));
        }
        None => {
            let _ = writeln!(s, "straggler: none (all inputs level with the output)");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ElementKind;
    use crate::json;
    use crate::sink::{TraceConfig, TraceSink, Tracer};
    use lmerge_temporal::VTime;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::BatchDelivered {
                at: VTime(10),
                input: 0,
                elements: 2,
                data: 2,
            },
            TraceEvent::ElementEmitted {
                at: VTime(12),
                kind: ElementKind::Insert,
                vs: Time(5),
            },
            TraceEvent::StablePointAdvanced {
                at: VTime(15),
                scope: StableScope::Input(1),
                stable: Time(9),
            },
            TraceEvent::StablePointAdvanced {
                at: VTime(16),
                scope: StableScope::Output,
                stable: Time::INFINITY,
            },
            TraceEvent::FeedbackPropagated {
                at: VTime(17),
                point: Time(9),
            },
            TraceEvent::QueueDepthSampled {
                at: VTime(18),
                staged: 3,
            },
            TraceEvent::MemorySampled {
                at: VTime(19),
                bytes: 4096,
            },
            TraceEvent::InputDrained {
                at: VTime(20),
                input: 0,
            },
            TraceEvent::RunCompleted { at: VTime(21) },
            TraceEvent::FaultInjected {
                at: VTime(22),
                input: 1,
                kind: crate::event::FaultKind::DropBatch,
            },
            TraceEvent::InputHealthChanged {
                at: VTime(23),
                input: 1,
                health: crate::event::HealthTag::Quarantined,
            },
            TraceEvent::CheckpointTaken {
                at: VTime(32),
                seq: 2,
                entries: 64,
                delta: false,
            },
        ]
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let events = sample_events();
        let out = to_jsonl(events.iter());
        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, e) in lines.iter().zip(&events) {
            let v = json::parse(line).expect("valid JSON");
            assert_eq!(v.get("event").and_then(Json::as_str), Some(e.name()));
            assert_eq!(v.get("at_us"), Some(&Json::Int(e.at().as_micros() as i128)));
        }
        // Infinity serializes as a string, not a number.
        let stable_line = json::parse(lines[3]).unwrap();
        assert_eq!(
            stable_line.get("stable").and_then(Json::as_str),
            Some("inf")
        );
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let events = sample_events();
        let out = to_chrome_trace(events.iter());
        let v = json::parse(&out).expect("valid JSON document");
        let trace = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // Every event produced at least one entry, plus thread metadata.
        assert!(trace.len() >= events.len());
        let phases: Vec<&str> = trace
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert!(phases.contains(&"M"), "thread names present");
        assert!(phases.contains(&"i"), "instants present");
        assert!(phases.contains(&"C"), "counters present");
        for e in trace {
            assert!(matches!(e.get("name"), Some(Json::Str(_))));
            if e.get("ph").and_then(Json::as_str) != Some("M") {
                assert!(
                    matches!(e.get("ts"), Some(Json::Int(_))),
                    "timestamped: {e}"
                );
            }
        }
    }

    #[test]
    fn summary_names_the_straggler() {
        let mut t = Tracer::with_config(TraceConfig { capacity: 64 });
        t.record(TraceEvent::StablePointAdvanced {
            at: VTime(1),
            scope: StableScope::Input(0),
            stable: Time(100),
        });
        t.record(TraceEvent::StablePointAdvanced {
            at: VTime(1),
            scope: StableScope::Output,
            stable: Time(100),
        });
        t.record(TraceEvent::StablePointAdvanced {
            at: VTime(2),
            scope: StableScope::Input(1),
            stable: Time(25),
        });
        let s = t.summary();
        assert!(s.contains("straggler: input 1, 75 behind"), "got:\n{s}");
        assert!(s.contains("input"), "table header present");
    }

    #[test]
    fn summary_handles_empty_trace() {
        let t = Tracer::new();
        let s = t.summary();
        assert!(s.contains("events recorded: 0"));
        assert!(s.contains("straggler: none"));
    }
}
