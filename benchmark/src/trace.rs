//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each engine layer (spans inside the engine are a later change).  They stay
//! in memory until the run ends and are then written as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto).  Only the benchmark's main thread records,
//! so a plain vector and an open-span stack suffice.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open, and returns its result with the span's duration in seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[index].end_us = end_us;
        (result, (end_us - start_us) * 1e-6)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome-trace "complete" events; `args` carries the parent
    /// span and the workload id every span of this run shares.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(span.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(span.start_us)),
                    ("dur".into(), Json::Num(span.end_us - span.start_us)),
                    ("pid".into(), Json::Num(f64::from(std::process::id()))),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(index as f64)),
                            (
                                "parent".into(),
                                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload".into(), Json::Str(self.workload.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }

    pub fn write_chrome_trace(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.chrome_trace().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_and_enclose_their_children() {
        let mut tracer = Tracer::new("w");
        let ((), outer) = tracer.span("outer", |t| {
            t.span("first", |_| ());
            t.span("second", |t| {
                t.span("leaf", |_| ());
            });
        });
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["outer", "first", "second", "leaf"]);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        for span in &spans[1..] {
            assert!(span.start_us >= spans[0].start_us && span.end_us <= spans[0].end_us);
        }
        assert!(outer >= 0.0);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut tracer = Tracer::new("cc-dense");
        tracer.span("job", |t| {
            t.span("probe", |_| ());
        });
        let trace = crate::json::parse(&tracer.chrome_trace().to_string()).unwrap();
        let Some(Json::Arr(events)) = trace.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(events.len(), 2);
        let probe = &events[1];
        assert_eq!(probe.get("ph").and_then(Json::as_str), Some("X"));
        let args = probe.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            args.get("workload").and_then(Json::as_str),
            Some("cc-dense")
        );
    }
}
