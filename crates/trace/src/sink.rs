//! Sinks: where producers put events and consumers get them back.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

/// Receiver for trace events.
///
/// Producers call [`TraceSink::emit`] once per event, in cycle order
/// per producer (cycles never decrease within one producer, though two
/// producers may interleave). A sink must not panic on any event
/// sequence — producers treat it as write-only infrastructure.
///
/// Sinks are `Send` so that a finished core's report (which carries the
/// installed sink back to the caller) can cross thread boundaries, e.g.
/// when sampled-simulation windows run on a worker pool.
pub trait TraceSink: Debug + Send {
    /// Record one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Remove and return every retained event, oldest first. Sinks
    /// that do not retain events return an empty vector.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Number of events retained right now.
    fn len(&self) -> usize {
        0
    }

    /// Whether no events are retained.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands events buffered on the producer's side on to where they
    /// are kept. Producers call it when a run ends; sinks that keep
    /// events where they are emitted need not override it.
    fn flush(&mut self) {}
}

/// Sink that retains every event (tests and offline export).
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the retained events without draining them.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for RecordingSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Bounded sink that retains only the most recent `capacity` events —
/// the right choice for long runs where only the tail (e.g. the window
/// around a failure) matters.
#[derive(Debug)]
pub struct RingBufferSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// New sink retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            events: VecDeque::with_capacity(capacity.clamp(1, 1 << 20)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// How many events were evicted to honor the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

/// Clonable handle around a sink.
///
/// `Core::run` consumes the core (and with it any sink installed on
/// it), so a caller who wants the events back keeps one clone of a
/// `SharedSink` and installs another. It also keeps `SimBuilder`
/// clonable. Each core remains single-threaded; the mutex only covers
/// handing the buffer between the simulation and the caller.
#[derive(Clone, Debug)]
pub struct SharedSink {
    inner: Arc<Mutex<Box<dyn TraceSink>>>,
}

impl SharedSink {
    /// Wrap `sink` in a shared handle.
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Box::new(sink))),
        }
    }

    /// Shared handle around a [`RecordingSink`].
    pub fn recording() -> Self {
        Self::new(RecordingSink::new())
    }

    /// Shared handle around a [`RingBufferSink`] of `capacity`.
    pub fn ring(capacity: usize) -> Self {
        Self::new(RingBufferSink::new(capacity))
    }
}

impl TraceSink for SharedSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.inner.lock().expect("sink poisoned").emit(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.inner.lock().expect("sink poisoned").drain()
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("sink poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstKind, Stage};

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
    fn recording_sink_keeps_everything_in_order() {
        let mut s = RecordingSink::new();
        for c in 0..10 {
            s.emit(&ev(c));
        }
        assert_eq!(s.len(), 10);
        let drained = s.drain();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].cycle() < w[1].cycle()));
        assert!(s.is_empty());
    }

    #[test]
    fn ring_buffer_keeps_only_the_tail() {
        let mut s = RingBufferSink::new(4);
        for c in 0..10 {
            s.emit(&ev(c));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        let drained = s.drain();
        let cycles: Vec<u64> = drained.iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn shared_sink_clones_see_one_buffer() {
        let mut a = SharedSink::recording();
        let mut b = a.clone();
        a.emit(&ev(1));
        b.emit(&ev(2));
        assert_eq!(a.len(), 2);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert!(a.is_empty());
    }
}
