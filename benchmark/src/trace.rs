//! In-memory span recorder for the traced run.
//!
//! One span per op (`op`) with child spans for the benchmark-side steps
//! around the call into the system (`build`, the call itself, `check`).
//! Spans are kept in memory and written out when the run ends; spans
//! inside the product crates are a later change (ROADMAP item 4). The
//! untraced run takes the same timestamps and only skips the pushes, so
//! the difference between the two runs is the tracing overhead.

use std::time::Instant;

use crate::json::Json;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation.
    pub op: u32,
}

/// Span sink of one driver thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Recorder {
    /// A recorder that drops everything (the untraced run).
    pub fn off() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: None,
        }
    }

    /// A recording recorder; all threads of a run share one `origin`.
    pub fn on(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Some(Vec::new()),
        }
    }

    /// Record one operation from the four timestamps every op takes:
    /// `[start, call start, call end, end]`. `call` names the span
    /// around the system call (`service.run`, `client.request`, …).
    pub fn record_op(&mut self, op: u32, call: &'static str, t: [Instant; 4]) {
        let Some(spans) = self.spans.as_mut() else {
            return;
        };
        let ns = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
        let parent = spans.len() as u32;
        let mut push = |name, a: Instant, b: Instant, parent| {
            spans.push(Span {
                name,
                start_ns: ns(a),
                end_ns: ns(b),
                parent,
                op,
            })
        };
        push("op", t[0], t[3], None);
        push("build", t[0], t[1], Some(parent));
        push(call, t[1], t[2], Some(parent));
        push("check", t[2], t[3], Some(parent));
    }

    /// The recorded spans (empty when off).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Spans of several threads as one JSON array; `parent` indices are
/// rebased so they stay valid in the concatenation.
pub fn spans_json(per_thread: Vec<Vec<Span>>) -> Json {
    let mut out = Vec::new();
    let mut base = 0u32;
    for (thread, spans) in per_thread.into_iter().enumerate() {
        let count = spans.len() as u32;
        for s in spans {
            out.push(Json::obj([
                ("name", Json::str(s.name)),
                ("start", Json::Num(s.start_ns as f64)),
                ("end", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Null, |p| Json::Num((base + p) as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
                ("thread", Json::Num(thread as f64)),
            ]));
        }
        base += count;
    }
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_records_four_spans_per_op() {
        let t = Instant::now();
        let mut off = Recorder::off();
        off.record_op(0, "service.run", [t; 4]);
        assert!(off.into_spans().is_empty());

        let mut on = Recorder::on(t);
        on.record_op(0, "service.run", [t; 4]);
        on.record_op(1, "service.run", [t; 4]);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[6].name, "service.run");
        assert_eq!(spans[6].parent, Some(4));
        assert_eq!(spans[6].op, 1);
    }

    #[test]
    fn concatenation_rebases_parents() {
        let t = Instant::now();
        let mut a = Recorder::on(t);
        a.record_op(0, "client.request", [t; 4]);
        let mut b = Recorder::on(t);
        b.record_op(0, "client.request", [t; 4]);
        let json = spans_json(vec![a.into_spans(), b.into_spans()]);
        let spans = json.as_arr().unwrap();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[5].get("parent").unwrap().as_f64(), Some(4.0));
        assert_eq!(spans[5].get("thread").unwrap().as_f64(), Some(1.0));
    }
}
