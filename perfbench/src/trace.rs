//! In-memory span recorder for the traced run. Spans are kept in a vector
//! while the run executes and written out once, when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`round`, `request`, `sweep`, `pass`).
    pub name: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, in microseconds since the recorder was created.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id the span belongs to (spans of one request share it).
    pub request: Option<u64>,
    /// Counts taken at the span's boundary, as `(name, value)`.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder with one time origin.
pub struct Tracer {
    origin: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds between the recorder's origin and `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span at `start` and return its index; [`close`](Tracer::close)
    /// sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let at = self.us(start);
        self.spans.push(Span {
            name,
            start_us: at,
            end_us: at,
            parent,
            request,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Set the end of span `i`.
    pub fn close(&mut self, i: usize, end: Instant) {
        self.spans[i].end_us = self.us(end);
    }

    /// Every span named `name`.
    pub fn named<'a>(&'a self, name: &'static str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}",
                s.name, s.start_us, s.end_us
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            for (k, v) in &s.counts {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}\n");
        }
        out
    }
}
