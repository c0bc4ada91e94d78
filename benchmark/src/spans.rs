//! In-memory spans around the calls into each layer, written out as a
//! Chrome trace when the run ends. Spans are recorded from the harness
//! only — nothing inside the measured program is instrumented.

use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Microseconds after the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub workload: String,
}

/// The recorder: spans nest by call structure.
pub struct Spans {
    origin: Instant,
    workload: String,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            workload: String::new(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Label every span recorded from now on with `workload`.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, a child of whichever span is
    /// open on entry.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open a span by hand (for regions that need `&mut self` inside).
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.done.len();
        self.done.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
        });
        self.open.push(id);
        id
    }

    /// Close the span `enter` returned (and any left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.done[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.done
    }

    /// Render as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self
            .done
            .iter()
            .filter(|s| s.end_us.is_finite())
            .enumerate()
        {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"parent\":{parent},\"workload\":{}}}}}",
                json_string(&s.name),
                s.start_us,
                s.end_us - s.start_us,
                json_string(&s.workload),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_call_structure() {
        let mut spans = Spans::new();
        spans.set_workload("w");
        spans.span("outer", || {});
        let outer = spans.enter("outer2");
        let inner = spans.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.exit(inner);
        spans.exit(outer);
        let all = spans.spans();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[2].workload, "w");
        assert!(all[2].end_us - all[2].start_us >= 2000.0);
        assert!(all[1].start_us <= all[2].start_us && all[2].end_us <= all[1].end_us);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut spans = Spans::new();
        let outer = spans.enter("outer");
        spans.enter("forgotten");
        spans.exit(outer);
        assert!(spans.spans().iter().all(|s| s.end_us.is_finite()));
        // A fresh span is a root again.
        let next = spans.enter("next");
        assert_eq!(spans.spans()[next].parent, None);
    }

    #[test]
    fn chrome_trace_is_well_formed_and_escaped() {
        let mut spans = Spans::new();
        spans.set_workload("a\"b");
        spans.span("x\\y", || {});
        let text = spans.to_chrome_trace();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"name\":\"x\\\\y\""));
        assert!(text.contains("\"workload\":\"a\\\"b\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert_eq!(json_string("a\nb\u{1}"), "\"a\\nb\\u0001\"");
    }
}
