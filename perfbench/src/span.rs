//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! repository's crates; nothing inside the program is instrumented. A
//! span's *layer* is the part of its name before the first `.`
//! (`core.compile` → `core`). Spans outside the six crate layers — the
//! per-run roots and the client loops — are the unattributed remainder.

use std::collections::BTreeMap;
use std::time::Instant;

/// The crate layers a traced run splits time into.
pub const LAYERS: [&str; 6] = ["workloads", "core", "sim", "spec", "serve", "bench"];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `sim.run`.
    pub name: &'static str,
    /// The operation (grid cell, request, fuzz case) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span's time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder. A disabled tracer records nothing and reads no
/// clock, so the same code path runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `open` returned (spans close innermost first).
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, op);
        let r = f();
        self.close(id);
        r
    }

    /// How many spans are open.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let top = self.stack.last().copied();
            self.close(top);
        }
    }

    /// Runs `f` with `parent` as the innermost open span, so spans it
    /// opens attach there (a replay attributed to an earlier span).
    pub fn within<R>(&mut self, parent: Option<usize>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let saved = std::mem::take(&mut self.stack);
        self.stack.extend(parent);
        let r = f(self);
        self.stack = saved;
        r
    }

    /// Records a finished interval under an explicit parent: spans timed
    /// on another thread, or an in-process replay of the parent's
    /// operation.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus its children's durations. Children
    /// of one span never overlap — each runs on its parent's thread, or
    /// replays its parent's operation — so this is the parent's time not
    /// covered by a child. A replay slower than the original shows as a
    /// negative self time rather than being hidden.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ns() as i64;
            }
        }
        own
    }

    /// Writes up to `limit` spans as JSON lines (name, op, parent,
    /// start, end, self time), then a line counting any left out.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write, limit: usize) -> std::io::Result<()> {
        let own = self.self_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(&own).enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        if self.spans.len() > limit {
            writeln!(w, "{{\"omitted_spans\":{}}}", self.spans.len() - limit)?;
        }
        w.flush()
    }

    /// Aggregates the spans into per-name totals and per-layer self time.
    pub fn summary(&self) -> Summary {
        let own = self.self_ns();
        let mut sum = Summary::default();
        for (s, &self_ns) in self.spans.iter().zip(&own) {
            let e = sum.by_name.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += 1;
            *sum.self_by_name.entry(s.name).or_default() += self_ns;
            if s.parent.is_none() {
                sum.end_to_end_ns += s.dur_ns();
            }
            if LAYERS.contains(&s.layer()) {
                *sum.layer_self_ns.entry(s.layer()).or_default() += self_ns;
            } else {
                *sum.unattributed_ns.entry(s.name).or_default() += self_ns;
            }
        }
        sum
    }
}

/// Totals over a tracer's spans.
#[derive(Debug, Default)]
pub struct Summary {
    /// Sum of root-span durations: the traced end-to-end time.
    pub end_to_end_ns: u64,
    /// Per span name: (total duration, span count).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Self time per span name.
    pub self_by_name: BTreeMap<&'static str, i64>,
    /// Self time per crate layer.
    pub layer_self_ns: BTreeMap<&'static str, i64>,
    /// Self time of spans outside the crate layers, by span name.
    pub unattributed_ns: BTreeMap<&'static str, i64>,
}

impl Summary {
    /// Total duration of the spans named `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64 / 1e6)
    }

    /// How many spans named `name` were recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.1)
    }

    /// Self time of the spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_by_name
            .get(name)
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Self time of a crate layer, in milliseconds.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.layer_self_ns
            .get(layer)
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Self time outside the crate layers, in milliseconds.
    pub fn unattributed_ms(&self) -> f64 {
        self.unattributed_ns.values().sum::<i64>() as f64 / 1e6
    }

    /// The traced end-to-end time, in milliseconds.
    pub fn end_to_end_ms(&self) -> f64 {
        self.end_to_end_ns as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_of_nested_spans() {
        let mut t = Tracer::new(true);
        let b = t.epoch;
        let root = t.record("perfbench.run", 0, None, at(b, 0), at(b, 100));
        let compile = t.record("core.compile", 1, root, at(b, 10), at(b, 40));
        let sim = t.record("sim.run", 1, root, at(b, 40), at(b, 90));
        t.record("sim.build", 1, sim, at(b, 40), at(b, 45));
        t.record("workloads.generate", 1, compile, at(b, 10), at(b, 12));
        let own = t.self_ns();
        let ms = |ns: i64| ns / 1_000_000;
        assert_eq!(
            own.iter().map(|&n| ms(n)).collect::<Vec<_>>(),
            [20, 28, 45, 5, 2]
        );
        let s = t.summary();
        assert_eq!(s.end_to_end_ms(), 100.0);
        assert_eq!(s.layer_ms("core"), 28.0);
        assert_eq!(s.layer_ms("sim"), 50.0);
        assert_eq!(s.layer_ms("workloads"), 2.0);
        assert_eq!(s.unattributed_ms(), 20.0);
        // Layer self times and the remainder add up to the whole.
        let layers: f64 = LAYERS.iter().map(|l| s.layer_ms(l)).sum();
        assert_eq!(layers + s.unattributed_ms(), s.end_to_end_ms());
        assert_eq!(s.ms("sim.run"), 50.0);
        assert_eq!(s.count("sim.build"), 1);
        assert_eq!(s.self_ms("sim.run"), 45.0);
        let mut jsonl = Vec::new();
        t.write_jsonl(&mut jsonl, 4).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert!(text.starts_with("{\"id\":0,\"name\":\"perfbench.run\",\"op\":0,\"parent\":null,"));
        assert!(text.contains("\"self_ns\":28000000}"));
        assert!(text.ends_with("{\"omitted_spans\":1}\n"));
    }

    #[test]
    fn open_close_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("perfbench.run", 0);
        let v = t.span("core.compile", 7, || 41 + 1);
        t.close(outer);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());

        // A replay attaches under an earlier span; a caught panic's open
        // spans are closed.
        let parent = Some(1);
        t.within(parent, |t| t.span("sim.run", 7, || ()));
        assert_eq!(t.spans()[2].parent, parent);
        let depth = t.depth();
        t.open("sim.build", 8);
        t.unwind_to(depth);
        assert_eq!(t.depth(), depth);

        let mut off = Tracer::new(false);
        let id = off.open("perfbench.run", 0);
        assert_eq!(off.span("core.compile", 1, || 3), 3);
        off.close(id);
        assert!(off.spans().is_empty());
        assert_eq!(off.summary().end_to_end_ns, 0);
    }
}
