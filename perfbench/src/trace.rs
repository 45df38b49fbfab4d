//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span names the public call it times (`sim.build`, `core.mwm`,
//! `service.handle.is_matched`, ...); the part before the first `.` is
//! the layer. Spans nest per thread, so a span opened inside another is
//! its child. Everything stays in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique across all threads of the run.
    pub id: u64,
    /// The span that was open on this thread when this one began.
    pub parent: Option<u64>,
    /// `layer.call`.
    pub name: &'static str,
    /// The benchmark op (or set-up repetition) the call belongs to.
    pub op: u64,
    /// Which of the benchmark's threads recorded it.
    pub thread: u32,
    /// Offsets from the run's epoch.
    pub start: Duration,
    /// See `start`.
    pub end: Duration,
}

impl Span {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An open span; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Per-thread span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    epoch: Instant,
    ids: Arc<AtomicU64>,
    thread: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for the main thread; records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            recording: enabled,
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(0)),
            thread: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's epoch and ids.
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            recording: self.enabled,
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            thread,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans are being recorded now.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// In a traced run, turns recording on or off for the next op, so
    /// traced and untraced ops can interleave. Call between ops only.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    /// Opens a span named `name` for op `op`.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.recording {
            return Open(None);
        }
        let now = self.epoch.elapsed();
        let idx = self.spans.len();
        self.spans.push(Span {
            // Relaxed: the counter only has to hand out distinct values.
            id: self.ids.fetch_add(1, Ordering::Relaxed),
            parent: self.stack.last().map(|&i| self.spans[i].id),
            name,
            op,
            thread: self.thread,
            start: now,
            end: now,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.epoch.elapsed();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, op);
        let r = f();
        self.exit(open);
        r
    }

    /// Takes over the spans another thread's recorder collected.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::stats::ms(s.duration()))
            .collect()
    }

    /// Median duration of the spans named `name`, in milliseconds; 0
    /// when there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations_ms(name))
    }

    /// Self time per layer: each span's duration minus the time its
    /// child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.duration();
            }
        }
        let mut by_layer: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get(&s.id).copied().unwrap_or_default();
            *by_layer.entry(s.layer()).or_default() += s.duration().saturating_sub(covered);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \"op\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.name,
                s.layer(),
                s.op,
                s.thread,
                s.start.as_nanos(),
                s.end.as_nanos()
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            thread: 0,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "sim.build", 0, 10),
            span(2, Some(0), "sim.run", 10, 90),
        ];
        let by_layer = tr.self_time_by_layer();
        assert_eq!(by_layer["op"], Duration::from_millis(10));
        assert_eq!(by_layer["sim"], Duration::from_millis(90));
    }

    #[test]
    fn nesting_and_recording_switch() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("op", 7);
        tr.time("sim.run", 7, || ());
        tr.exit(outer);
        tr.set_recording(false);
        tr.time("sim.run", 8, || ());
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(tr.spans[0].id));
        assert!(Tracer::new(false).enter("op", 0).0.is_none());
    }
}
