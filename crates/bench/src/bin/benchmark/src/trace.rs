//! Wall-clock spans around the calls into each layer.
//!
//! The benchmark measures layers from outside: a span covers one call
//! (or one back-to-back run of calls, `calls` > 1) into a layer's public
//! function, under the request that caused it. Spans stay in memory
//! during the run and are written as JSONL when it ends. With tracing
//! off every method returns at once without reading the clock, so the
//! untraced run pays nothing for the instrument.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Tick, transaction group or sim-ms that caused the call.
    pub request: u64,
    /// How many calls the span covers.
    pub calls: u64,
}

/// Handle returned by [`Tracer::open`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
            calls: 1,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span that covered `calls` calls.
    pub fn close_calls(&mut self, open: Open, calls: u64) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(index) {
            span.end_ns = end_ns;
            span.calls = calls;
        }
        self.stack.retain(|&i| i != index);
    }

    pub fn close(&mut self, open: Open) {
        self.close_calls(open, 1);
    }

    /// Time one call into a layer.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: total duration, self time (duration minus the part
    /// its child spans cover) and calls, in first-seen order of the name.
    pub fn totals(&self) -> Vec<NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_insert_with(|| {
                order.push(span.name);
                NameTotal {
                    name: span.name,
                    total_s: 0.0,
                    self_s: 0.0,
                    calls: 0,
                }
            });
            entry.total_s += total as f64 / 1e9;
            entry.self_s += total.saturating_sub(covered) as f64 / 1e9;
            entry.calls += span.calls;
        }
        order
            .into_iter()
            .filter_map(|n| by_name.remove(n))
            .collect()
    }

    /// Total seconds and calls recorded under `name` (zeros if none).
    pub fn total(&self, name: &str) -> (f64, u64) {
        let mut ns = 0u64;
        let mut calls = 0u64;
        for span in self.spans.iter().filter(|s| s.name == name) {
            ns += span.end_ns - span.start_ns;
            calls += span.calls;
        }
        (ns as f64 / 1e9, calls)
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            )?;
        }
        out.flush()
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Clone)]
pub struct NameTotal {
    pub name: &'static str,
    pub total_s: f64,
    pub self_s: f64,
    pub calls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        tr.set_request(7);
        let root = tr.open("tick");
        let child = tr.open("layer.call");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.close_calls(child, 3);
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].request, spans[1].calls), (7, 3));
        let totals = tr.totals();
        let tick = &totals[0];
        let layer = &totals[1];
        assert_eq!((tick.name, layer.name), ("tick", "layer.call"));
        assert!(layer.total_s >= 0.002);
        assert!((tick.self_s - (tick.total_s - layer.total_s)).abs() < 1e-9);
        assert_eq!(tr.total("layer.call").1, 3);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut tr = Tracer::new(false);
        let got = tr.call("layer.call", || 5);
        assert_eq!(got, 5);
        assert!(tr.spans().is_empty());
    }
}
