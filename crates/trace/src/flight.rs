//! Flight recorder: a fixed-capacity lossy event ring holding the last
//! *K* events of a run, plus the post-mortem dump it feeds.
//!
//! It is the crate's one bounded sink:
//!
//! * [`FlightRecorder`] stores events in one pre-allocated buffer with
//!   a wrapping write index — after construction the hot path never
//!   allocates — and reads its tail without draining it;
//! * [`SharedFlightRecorder`] is a clonable handle whose buffer
//!   survives the `Core` that owned the sink — when a run dies (a
//!   declared deadlock drops the core mid-flight, a job panics under
//!   `catch_unwind`), the retained clone still holds the last *K*
//!   events;
//! * [`LocalFlightSink`] gives each core a private ring of its own,
//!   so emitting takes no lock; the ring reaches the shared recorder
//!   when the run ends or the sink is dropped, unwinding included;
//! * [`render_postmortem`] turns that tail plus the active host span
//!   stack into a `dgl-postmortem` JSONL artifact — a header line
//!   followed by one event per line, every line strict-JSON parseable.
//!
//! Installing a recorder makes the core build and emit every trace
//! event, which is not free. `dgl serve` and the fuzzer therefore
//! attach one only when they replay a failed run for its post-mortem.

use crate::chrome::push_json_str;
use crate::event::TraceEvent;
use crate::jsonl;
use crate::sink::TraceSink;
use std::sync::{Arc, Mutex};

/// Schema identifier on a post-mortem header line.
pub const POSTMORTEM_SCHEMA: &str = "dgl-postmortem";
/// Post-mortem schema version.
pub const POSTMORTEM_VERSION: u64 = 1;

/// A lossy ring of the most recent trace events.
///
/// The buffer is reserved up front; once full, new events overwrite
/// the oldest in place, so `emit` never allocates.
#[derive(Debug)]
pub struct FlightRecorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Oldest slot once the buffer has wrapped; next overwrite target.
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// New recorder retaining at most `capacity` events (clamped to
    /// `[1, 2^20]`); the buffer is allocated here, once.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, 1 << 20);
        Self {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Lifetime count of emitted events (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted to honor the bound.
    pub fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }

    /// The retained tail, oldest first, without consuming it.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Writes `event` into the ring without counting it.
    fn push(&mut self, event: &TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(*event);
        } else {
            self.events[self.head] = *event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Moves `other`'s retained tail (oldest first) onto this ring and
    /// adds its lifetime count to this one's, leaving `other` empty
    /// with its allocation kept.
    fn absorb(&mut self, other: &mut FlightRecorder) {
        let (newer, older) = other.events.split_at(other.head);
        for event in older.iter().chain(newer) {
            self.push(event);
        }
        self.total += other.total;
        other.events.clear();
        other.head = 0;
        other.total = 0;
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&mut self, event: &TraceEvent) {
        self.push(event);
        self.total += 1;
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        let out = self.snapshot();
        self.events.clear();
        self.head = 0;
        out
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Clonable handle around a [`FlightRecorder`].
///
/// Unlike [`SharedSink`](crate::SharedSink) the inner type is
/// concrete, so the retained tail can be *snapshotted* (not just
/// destructively drained) after the core that owned the sink is gone —
/// install a [`local_sink`](Self::local_sink) on each core, keep the
/// handle for the post-mortem.
#[derive(Debug, Clone)]
pub struct SharedFlightRecorder {
    inner: Arc<Mutex<FlightRecorder>>,
}

impl SharedFlightRecorder {
    /// New shared recorder of `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(FlightRecorder::new(capacity))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightRecorder> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The retained tail, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().snapshot()
    }

    /// Lifetime count of emitted events.
    pub fn total(&self) -> u64 {
        self.lock().total()
    }

    /// Renders the current tail as a post-mortem artifact; see
    /// [`render_postmortem`].
    pub fn postmortem(&self, reason: &str, detail: &str, span_stack: &[String]) -> String {
        let rec = self.lock();
        render_postmortem(reason, detail, span_stack, &rec.snapshot(), rec.total())
    }

    /// A private ring of this recorder's capacity for one producer
    /// (one core): emitting into it takes no lock. Its retained tail
    /// and event count join this recorder on
    /// [`flush`](TraceSink::flush) — the core calls it when a run
    /// ends — and on drop, which also runs while a panic unwinds.
    pub fn local_sink(&self) -> LocalFlightSink {
        LocalFlightSink {
            ring: FlightRecorder::new(self.lock().capacity),
            shared: self.clone(),
        }
    }
}

/// One producer's private flight ring, from
/// [`SharedFlightRecorder::local_sink`]. Events are read through the
/// shared recorder once they have joined it; this sink reports none
/// itself.
#[derive(Debug)]
pub struct LocalFlightSink {
    ring: FlightRecorder,
    shared: SharedFlightRecorder,
}

impl TraceSink for LocalFlightSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.ring.emit(event);
    }

    fn flush(&mut self) {
        if self.ring.total > 0 {
            self.shared.lock().absorb(&mut self.ring);
        }
    }
}

impl Drop for LocalFlightSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Renders a `dgl-postmortem` v1 JSONL artifact: one header line
/// (reason, free-form detail, the host span stack that was active —
/// or unwinding — at failure, and retention accounting), then the
/// retained events oldest-first, one JSON object per line in the
/// [`jsonl`] encoding. Every line parses as strict JSON on its own.
pub fn render_postmortem(
    reason: &str,
    detail: &str,
    span_stack: &[String],
    events: &[TraceEvent],
    total: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(events.len() * 80 + 256);
    let _ = write!(
        out,
        "{{\"schema\":\"{POSTMORTEM_SCHEMA}\",\"version\":{POSTMORTEM_VERSION},\"reason\":"
    );
    push_json_str(&mut out, reason);
    out.push_str(",\"detail\":");
    push_json_str(&mut out, detail);
    out.push_str(",\"span_stack\":[");
    for (i, name) in span_stack.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
    }
    let retained = events.len() as u64;
    let _ = writeln!(
        out,
        "],\"events_total\":{total},\"events_retained\":{retained},\"events_dropped\":{}}}",
        total.saturating_sub(retained)
    );
    for ev in events {
        jsonl::write_event(&mut out, ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstKind, Stage};
    use dgl_stats::Json;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::Stage {
            seq: cycle,
            pc: 0,
            kind: InstKind::Alu,
            stage: Stage::Fetch,
            cycle,
        }
    }

    #[test]
    fn ring_overwrites_oldest_without_reallocating() {
        let mut r = FlightRecorder::new(4);
        let cap_before = r.events.capacity();
        for c in 0..11 {
            r.emit(&ev(c));
        }
        assert_eq!(r.events.capacity(), cap_before, "hot path never grows");
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 11);
        assert_eq!(r.dropped(), 7);
        let cycles: Vec<u64> = r.snapshot().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "oldest first, tail kept");
        // Snapshot is non-destructive; drain empties but keeps the
        // allocation.
        assert_eq!(r.len(), 4);
        assert_eq!(r.drain().len(), 4);
        assert!(r.is_empty());
        assert_eq!(r.events.capacity(), cap_before);
        r.emit(&ev(99));
        assert_eq!(r.snapshot()[0].cycle(), 99);
    }

    #[test]
    fn capacity_is_clamped() {
        let r = FlightRecorder::new(0);
        assert_eq!(r.capacity, 1);
    }

    #[test]
    fn shared_clone_survives_the_emitting_side() {
        let keeper = SharedFlightRecorder::new(8);
        let mut installed: Box<dyn TraceSink> = Box::new(keeper.local_sink());
        for c in 0..3 {
            installed.emit(&ev(c));
        }
        drop(installed); // the core (and its sink box) died
        assert_eq!(keeper.snapshot().len(), 3);
        assert_eq!(keeper.total(), 3);
    }

    #[test]
    fn local_sink_dropped_while_unwinding_leaves_its_tail_and_total() {
        let keeper = SharedFlightRecorder::new(4);
        let mut earlier = keeper.local_sink();
        earlier.emit(&ev(100));
        drop(earlier);
        let caught = std::panic::catch_unwind(|| {
            let mut local: Box<dyn TraceSink> = Box::new(keeper.local_sink());
            for c in 0..11 {
                local.emit(&ev(c));
            }
            panic!("core died mid-run");
        });
        assert!(caught.is_err());
        let cycles: Vec<u64> = keeper.snapshot().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "the sink's last K events");
        assert_eq!(
            keeper.total(),
            12,
            "an earlier sink's one event plus this sink's 11"
        );
    }

    #[test]
    fn local_sink_flush_publishes_once() {
        let keeper = SharedFlightRecorder::new(8);
        let mut local = keeper.local_sink();
        for c in 0..3 {
            local.emit(&ev(c));
        }
        assert_eq!(keeper.total(), 0, "nothing joins before a flush");
        local.flush();
        assert_eq!(keeper.total(), 3);
        drop(local);
        assert_eq!(keeper.total(), 3, "a flushed sink adds nothing on drop");
        assert_eq!(keeper.snapshot().len(), 3);
    }

    #[test]
    fn postmortem_lines_each_parse_as_strict_json() {
        let rec = SharedFlightRecorder::new(2);
        let mut sink = rec.local_sink();
        for c in 0..5 {
            sink.emit(&ev(c));
        }
        sink.flush();
        let text = rec.postmortem(
            "panic",
            "job j1: boom \"quoted\"",
            &["job".to_owned(), "simulate".to_owned()],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 retained events");
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains("\"schema\":\"dgl-postmortem\""));
        assert!(lines[0].contains("\"events_total\":5"));
        assert!(lines[0].contains("\"events_dropped\":3"));
        assert!(lines[0].contains("\\\"quoted\\\""));
        assert!(lines[0].contains("\"span_stack\":[\"job\",\"simulate\"]"));
        assert!(lines[1].contains("\"cycle\":3"), "oldest retained first");
    }
}
