//! Spans around the benchmark's own calls into each layer's public
//! functions: name, key, start, end, parent, and the engine's work
//! counters over the span. Kept in memory and written into the results
//! JSON at the end of the run.

use std::time::Instant;

use bpfree::bench::json::Json;
use bpfree::engine::Engine;

/// The engine's work counters, named in [`COUNTERS`] order.
pub type Counters = [u64; 6];

/// Names of the [`Counters`] slots.
pub const COUNTERS: [&str; 6] = [
    "compiles",
    "analyses",
    "decodes",
    "simulations",
    "trace_records",
    "orderings",
];

/// Indices into [`Counters`].
pub const COMPILES: usize = 0;
pub const ANALYSES: usize = 1;
pub const DECODES: usize = 2;
pub const SIMULATIONS: usize = 3;

/// The engine's counters right now.
pub fn counters(engine: &Engine) -> Counters {
    [
        engine.compiles(),
        engine.analyses(),
        engine.decodes(),
        engine.simulations(),
        engine.trace_records(),
        engine.orderings(),
    ]
}

/// One recorded call. Times are seconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub key: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Engine counter increments while the span was open.
    pub delta: Counters,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer<'e> {
    on: bool,
    origin: Instant,
    engine: Option<&'e Engine>,
    spans: Vec<Span>,
    open: Vec<usize>,
    pipeline_end: Option<f64>,
}

impl<'e> Tracer<'e> {
    /// A tracer that records nothing: [`Tracer::span`] just runs its
    /// closure. The timed reps run through this.
    pub fn off() -> Tracer<'e> {
        Tracer {
            on: false,
            ..Tracer::new(None)
        }
    }

    /// A recording tracer, reading counters from `engine` if given. Its
    /// clock starts now.
    pub fn new(engine: Option<&'e Engine>) -> Tracer<'e> {
        Tracer {
            on: true,
            origin: Instant::now(),
            engine,
            spans: Vec::new(),
            open: Vec::new(),
            pipeline_end: None,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn counters(&self) -> Counters {
        self.engine.map(counters).unwrap_or_default()
    }

    /// Runs `f` inside a span named `name` (the layer's call) for `key`
    /// (what it was called on). Spans opened inside `f` become children.
    pub fn span<R>(&mut self, name: &'static str, key: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let before = self.counters();
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            key: key.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            delta: Counters::default(),
        });
        self.open.push(idx);
        let result = f(self);
        self.open.pop();
        let (end, after) = (self.now(), self.counters());
        let span = &mut self.spans[idx];
        span.end = end;
        for (d, (a, b)) in span.delta.iter_mut().zip(after.iter().zip(before)) {
            *d = a - b;
        }
        result
    }

    /// Closes the traced pipeline. Spans recorded afterwards (the
    /// kernel calls) are kept but count toward neither
    /// [`Tracer::wall`] nor [`Tracer::coverage`].
    pub fn end_pipeline(&mut self) {
        self.pipeline_end = Some(self.now());
    }

    /// Seconds from the tracer's start to the end of the pipeline.
    pub fn wall(&self) -> f64 {
        self.pipeline_end.unwrap_or_else(|| self.now())
    }

    /// Total seconds of the spans `keep` accepts (`+0.0` for none).
    fn secs_where(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| keep(s))
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.secs_where(|s| s.name == name)
    }

    /// Total seconds of the spans named `name` called on `key`.
    pub fn total_keyed(&self, name: &str, key: &str) -> f64 {
        self.secs_where(|s| s.name == name && s.key == key)
    }

    /// Total seconds of the spans named `name` that moved engine counter
    /// `counter`: the calls that did the work rather than read it back.
    pub fn total_working(&self, name: &str, counter: usize) -> f64 {
        self.secs_where(|s| s.name == name && s.delta[counter] > 0)
    }

    /// The share of the pipeline's wall-clock covered by top-level
    /// spans; the rest is the benchmark's own time between calls.
    pub fn coverage(&self) -> f64 {
        let end = self.wall();
        self.secs_where(|s| s.parent.is_none() && s.end <= end) / end
    }

    /// Every span, with its self time (duration minus its children's).
    pub fn to_json(&self) -> Json {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let spans = self
            .spans
            .iter()
            .zip(child_secs)
            .map(|(s, children)| {
                let counters = COUNTERS
                    .iter()
                    .zip(s.delta)
                    .fold(Json::obj(), |o, (name, d)| o.field(name, d))
                    .build();
                Json::obj()
                    .field("name", s.name)
                    .field("key", s.key.as_str())
                    .field("start_s", s.start)
                    .field("end_s", s.end)
                    .field("self_s", s.secs() - children)
                    .field(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    )
                    .field("counters", counters)
                    .build()
            })
            .collect();
        Json::Arr(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(None);
        t.span("outer", "a", |t| {
            t.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.end_pipeline();
        t.span("kernel", "", |_| ());
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.total("inner") >= 0.005);
        assert!(t.total("outer") >= t.total("inner"));
        assert!(t.coverage() > 0.5 && t.coverage() <= 1.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", "", |t| t.span("y", "", |_| 7)), 7);
        assert!(t.spans.is_empty());
    }
}
