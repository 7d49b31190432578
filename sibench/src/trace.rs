//! A minimal in-memory tracer: nested spans around the calls the benchmark
//! makes into each layer, plus counters read from the results those calls
//! return. Spans stay in memory until the job ends and are written out with
//! the job record. A disabled tracer records nothing, so the untraced path
//! pays one branch per call site.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Offsets are relative to the tracer's origin (the job
/// start).
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `stg.parse`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
}

/// Span and counter recorder for one job.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Per open span: where the next reported child starts.
    cursor: Vec<Duration>,
    counters: Vec<(&'static str, f64)>,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            cursor: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent` (or at the top level).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: parent.and_then(|p| p.0),
            start,
            end: start,
        });
        self.cursor.push(start);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened with [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Records a program-reported child of `parent` lasting `duration` (a
    /// timing split a returned result carries, not a call measured here),
    /// placed after the previous reported child of the same parent. Its
    /// duration is exact; its placement inside the parent is not.
    pub fn reported(&mut self, parent: SpanId, name: &'static str, duration: Duration) -> SpanId {
        let Some(p) = parent.0 else {
            return SpanId(None);
        };
        let start = self.cursor[p];
        self.cursor[p] = start + duration;
        self.spans.push(Span {
            name,
            parent: Some(p),
            start,
            end: start + duration,
        });
        self.cursor.push(start);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name, value)),
        }
    }

    /// The spans as a JSON array of `[name, parent, start_us, end_us]` rows
    /// (`parent` is -1 at the top level).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[\"{}\",{},{:.3},{:.3}]",
                s.name,
                s.parent.map_or(-1, |p| p as i64),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out.push(']');
        out
    }

    /// The counters as a JSON object.
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("stg.parse", None);
        t.reported(s, "unfolding.build", Duration::from_millis(1));
        t.end(s);
        t.count("unfolding.events", 3.0);
        assert_eq!(t.spans_json(), "[]");
        assert_eq!(t.counters_json(), "{}");
    }

    #[test]
    fn reported_children_are_laid_end_to_end() {
        let mut t = Tracer::new(true);
        let job = t.begin("job", None);
        let synth = t.begin("core.synth", Some(job));
        t.reported(synth, "unfolding.build", Duration::from_micros(10));
        t.reported(synth, "core.derive", Duration::from_micros(5));
        t.end(synth);
        t.end(job);
        let s = &t.spans;
        assert_eq!(s[2].start, s[1].start);
        assert_eq!(s[3].start, s[2].end);
        assert_eq!(s[3].parent, Some(1));
    }

    #[test]
    fn counters_accumulate_by_name() {
        let mut t = Tracer::new(true);
        t.count("core.refine_steps", 2.0);
        t.count("core.refine_steps", 3.0);
        t.count("unfolding.events", 1.0);
        assert_eq!(
            t.counters_json(),
            "{\"core.refine_steps\":5,\"unfolding.events\":1}"
        );
    }
}
