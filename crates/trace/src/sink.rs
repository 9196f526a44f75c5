//! Sinks: where producers put events and consumers get them back.

use crate::event::TraceEvent;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard};

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

    /// The inner sink. A panic while another holder had it locked does
    /// not stop this one: the events emitted so far stay readable, as
    /// the [`TraceSink`] contract asks.
    fn lock(&self) -> MutexGuard<'_, Box<dyn TraceSink>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl TraceSink for SharedSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.lock().emit(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.lock().drain()
    }

    fn len(&self) -> usize {
        self.lock().len()
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

    /// Panics inside `emit` on its first event only.
    #[derive(Debug, Default)]
    struct PanicsOnce {
        inner: RecordingSink,
        panicked: bool,
    }

    impl TraceSink for PanicsOnce {
        fn emit(&mut self, event: &TraceEvent) {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("emit failed");
            }
            self.inner.emit(event);
        }

        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn shared_sink_survives_a_panic_under_its_lock() {
        let mut sink = SharedSink::new(PanicsOnce::default());
        let mut other = sink.clone();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| other.emit(&ev(1))));
        assert!(
            first.is_err(),
            "the inner sink panicked and poisoned the lock"
        );
        sink.emit(&ev(2));
        assert_eq!(sink.len(), 1);
    }
}
