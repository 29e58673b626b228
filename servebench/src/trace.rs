//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every thread owns a [`Tracer`]; spans are plain records (name, start,
//! end, parent, frame id) appended to a vector and written out once the run
//! ends. A disabled tracer records nothing, so the untraced run pays only a
//! branch per span site.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (thread number in the high bits).
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Layer boundary the span wraps, e.g. `pipeline.extract`.
    pub name: &'static str,
    /// Frame the span belongs to, shared by every span of that frame.
    pub frame: u64,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span: its id and start, closed by [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    frame: u64,
    start: Instant,
}

impl Open {
    /// The id children of this span take as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread number `thread` (ids stay unique across
    /// threads); a disabled recorder keeps nothing.
    pub fn new(origin: Instant, thread: u64, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            next: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Opens a span; `parent` is `0` for a root.
    pub fn open(&mut self, name: &'static str, frame: u64, parent: u64) -> Open {
        let id = if self.enabled {
            self.next += 1;
            self.next
        } else {
            0
        };
        Open {
            id,
            parent,
            name,
            frame,
            start: Instant::now(),
        }
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        self.record_at(open, end)
    }

    /// Records an already-timed interval as a span.
    pub fn record(&mut self, name: &'static str, frame: u64, start: Instant, end: Instant) {
        let open = self.open(name, frame, 0);
        self.record_at(Open { start, ..open }, end);
    }

    fn record_at(&mut self, open: Open, end: Instant) -> u64 {
        let dur = end.saturating_duration_since(open.start).as_nanos() as u64;
        if self.enabled {
            let start_ns = open.start.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                frame: open.frame,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
        dur
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        frame: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, frame, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over a set of spans: self time (duration minus the part
/// covered by child spans), total time and the frames covered, by name.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    self_ns: HashMap<&'static str, u64>,
    total_ns: HashMap<&'static str, u64>,
    frames: HashMap<&'static str, HashSet<u64>>,
}

impl Ledger {
    /// Builds the ledger. Children of one span run one after another on
    /// the parent's thread, so the covered part is the sum of their
    /// durations.
    pub fn of(spans: &[Span]) -> Self {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter().filter(|s| s.parent != 0) {
            *children.entry(span.parent).or_default() += span.dur_ns();
        }
        let mut ledger = Ledger::default();
        for span in spans {
            let covered = children.get(&span.id).copied().unwrap_or(0);
            *ledger.self_ns.entry(span.name).or_default() += span.dur_ns().saturating_sub(covered);
            *ledger.total_ns.entry(span.name).or_default() += span.dur_ns();
            ledger
                .frames
                .entry(span.name)
                .or_default()
                .insert(span.frame);
        }
        ledger
    }

    /// Self time of `name` in milliseconds, divided by `frames`.
    pub fn self_ms_per(&self, name: &str, frames: u64) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / frames.max(1) as f64
    }

    /// Self time of `name` in milliseconds per frame that has such a span.
    pub fn self_ms_per_frame(&self, name: &str) -> f64 {
        self.self_ms_per(name, self.frames(name))
    }

    /// Total time of `name` in milliseconds per frame that has such a span.
    pub fn total_ms_per_frame(&self, name: &str) -> f64 {
        self.total_ms_per(name, self.frames(name))
    }

    /// Distinct frames with at least one span named `name`.
    pub fn frames(&self, name: &str) -> u64 {
        self.frames.get(name).map_or(0, |set| set.len() as u64)
    }

    /// Total (inclusive) time of `name` in milliseconds, divided by `frames`.
    pub fn total_ms_per(&self, name: &str, frames: u64) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / frames.max(1) as f64
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","frame":{},"start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.name, s.frame, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            frame: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "stream.push", 0, 100),
            span(2, 1, "pipeline.extract", 0, 60),
            span(3, 1, "tracking.observe", 60, 90),
            span(4, 0, "wire.verify", 100, 110),
        ];
        let ledger = Ledger::of(&spans);
        assert_eq!(ledger.self_ms_per("stream.push", 1), 10.0 / 1e6);
        assert_eq!(ledger.total_ms_per("stream.push", 1), 100.0 / 1e6);
        assert_eq!(ledger.self_ms_per("pipeline.extract", 2), 30.0 / 1e6);
        assert_eq!(ledger.frames("wire.verify"), 1);
        assert_eq!(ledger.frames("pipeline.extract"), 1);
        assert_eq!(ledger.self_ms_per_frame("pipeline.extract"), 60.0 / 1e6);
        assert_eq!(ledger.total_ms_per_frame("stream.push"), 100.0 / 1e6);
        assert_eq!(ledger.self_ms_per("missing", 1), 0.0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let mut tracer = Tracer::new(Instant::now(), 0, false);
        let value = tracer.time("x", 0, 0, || 7);
        assert_eq!(value, 7);
        assert!(tracer.into_spans().is_empty());

        let mut tracer = Tracer::new(Instant::now(), 3, true);
        let parent = tracer.open("p", 9, 0);
        tracer.time("c", 9, parent.id(), || ());
        tracer.close(parent);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.frame == 9 && s.id >> 40 == 3));
    }
}
