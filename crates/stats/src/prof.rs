//! Host-side self-profiling: where does the *simulator* spend wall
//! time?
//!
//! The simulated results answer "how fast is the modelled machine";
//! this module answers "how fast is the model", so hot-path PRs can
//! show before/after numbers instead of eyeballing `time` output. It
//! is strictly host-side observability:
//!
//! * **No simulated state is read or written.** A [`ProfScope`] /
//!   [`ProfLap`] only reads the host clock and adds into its own
//!   atomic accumulators, so simulated results are byte-identical with
//!   profiling off *and* on (asserted in `dgl-sim`'s tests).
//! * **No-op unless enabled.** Callers hold an
//!   `Option<Arc<ProfRegistry>>`; with `None`,
//!   [`ProfScope::enter`] and the lap timer are a single branch and no
//!   clock is read.
//! * **Never serialized into manifests.** Like
//!   `RunReport::host_wall`, profiles are machine-dependent and are
//!   reported (CLI tables, perfbench's per-layer rows) but excluded
//!   from the deterministic simulated-metric set.
//!
//! Two measurement idioms:
//!
//! * [`ProfScope`] — RAII guard for a self-contained region (a memory
//!   hierarchy access, a squash). Costs two clock reads per region.
//! * [`ProfLap`] — a chained timer for *partitioning* a loop body into
//!   consecutive stages: one clock read per boundary, and the stage
//!   times sum exactly to the measured span (no unmeasured gaps
//!   between scopes), which is what makes the "stage sum ≈ run
//!   wall-clock" report meaningful.
//!
//! # Examples
//!
//! ```
//! use dgl_stats::prof::{ProfLap, ProfRegistry, ProfScope};
//!
//! let mut reg = ProfRegistry::new();
//! let work = reg.slot("work");
//! let cleanup = reg.slot_nested("cleanup"); // also counted inside `work`
//!
//! {
//!     let _outer = ProfScope::enter(Some((&reg, work)));
//!     let _inner = ProfScope::enter(Some((&reg, cleanup)));
//! }
//! // Disabled call sites pass None and pay one branch, no clock read.
//! let _off = ProfScope::enter(None);
//!
//! let report = reg.snapshot();
//! assert_eq!(report.entries.len(), 2);
//! assert_eq!(report.entries[0].calls, 1);
//! ```

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Index of a slot inside one [`ProfRegistry`] (returned by
/// [`ProfRegistry::slot`], cheap to copy into hot loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfId(usize);

#[derive(Debug)]
struct ProfSlot {
    name: &'static str,
    /// Nested slots are *also* counted inside an enclosing top-level
    /// slot (e.g. squash recovery runs inside the execute stage), so
    /// reports exclude them from the partition sum.
    nested: bool,
    ns: AtomicU64,
    calls: AtomicU64,
}

/// A registry of named wall-time accumulators.
///
/// Accumulators are atomic, so one registry may be shared (via `Arc`)
/// by every worker thread of an experiment matrix to profile the whole
/// run at once.
#[derive(Debug, Default)]
pub struct ProfRegistry {
    slots: Vec<ProfSlot>,
}

impl ProfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a top-level accumulator. Top-level slots are expected
    /// to partition the measured span; their sum is the report's
    /// "stages" total.
    pub fn slot(&mut self, name: &'static str) -> ProfId {
        self.push(name, false)
    }

    /// Registers a nested accumulator: a region that already runs
    /// inside a top-level slot (its time is counted twice on purpose,
    /// and reports exclude it from the partition sum).
    pub fn slot_nested(&mut self, name: &'static str) -> ProfId {
        self.push(name, true)
    }

    fn push(&mut self, name: &'static str, nested: bool) -> ProfId {
        self.slots.push(ProfSlot {
            name,
            nested,
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        });
        ProfId(self.slots.len() - 1)
    }

    /// The slot registered under `name`, if any.
    pub fn index_of(&self, name: &str) -> Option<ProfId> {
        self.slots.iter().position(|s| s.name == name).map(ProfId)
    }

    /// Adds one call of `ns` nanoseconds to a slot (the primitive the
    /// guards are built on).
    pub fn add(&self, id: ProfId, ns: u64) {
        let slot = &self.slots[id.0];
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        slot.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `calls` calls totalling `ns` nanoseconds to a slot in one
    /// atomic batch (how a [`ProfAccum`] flushes).
    pub fn add_many(&self, id: ProfId, ns: u64, calls: u64) {
        let slot = &self.slots[id.0];
        slot.ns.fetch_add(ns, Ordering::Relaxed);
        slot.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// A point-in-time copy of every accumulator, in registration
    /// order.
    pub fn snapshot(&self) -> ProfReport {
        ProfReport {
            entries: self
                .slots
                .iter()
                .map(|s| ProfEntry {
                    name: s.name,
                    nested: s.nested,
                    ns: s.ns.load(Ordering::Relaxed),
                    calls: s.calls.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// RAII guard measuring one region into a slot.
///
/// Construct with [`ProfScope::enter`]; the elapsed time is added when
/// the guard drops. With `reg = None` (profiling disabled) nothing is
/// measured and no clock is read.
#[must_use = "a ProfScope measures until it is dropped"]
#[derive(Debug)]
pub struct ProfScope<'a> {
    active: Option<(&'a ProfRegistry, ProfId, Instant)>,
}

impl<'a> ProfScope<'a> {
    /// Starts measuring a `(registry, slot)` pair; no-op on `None`
    /// (profiling disabled — call sites then hold no `ProfId` at all).
    pub fn enter(target: Option<(&'a ProfRegistry, ProfId)>) -> Self {
        Self {
            active: target.map(|(r, id)| (r, id, Instant::now())),
        }
    }
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        if let Some((reg, id, t0)) = self.active.take() {
            reg.add(id, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// A chained stage timer: each [`mark`](Self::mark) attributes the
/// time since the previous mark (or construction) to one slot, with a
/// single clock read per boundary. Consecutive marks therefore
/// partition the measured span exactly — stage sums have no
/// instrumentation gaps, unlike back-to-back [`ProfScope`]s.
#[derive(Debug)]
pub struct ProfLap<'a> {
    reg: &'a ProfRegistry,
    last: Instant,
}

impl<'a> ProfLap<'a> {
    /// Starts the lap clock.
    pub fn start(reg: &'a ProfRegistry) -> Self {
        Self {
            reg,
            last: Instant::now(),
        }
    }

    /// Closes the current segment into `id` and starts the next one.
    pub fn mark(&mut self, id: ProfId) {
        let now = Instant::now();
        self.reg
            .add(id, now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// A thread-local (unsynchronized) accumulator batching many
/// measurements before one atomic flush into a shared
/// [`ProfRegistry`].
///
/// The registry's atomic slots make cross-thread sharing safe, but a
/// hot loop adding to them every tick pays two contended RMWs per
/// measurement. A `ProfAccum` keeps plain counters instead; the owner
/// adds locally (no atomics, no sharing) and calls
/// [`flush`](Self::flush) once at a natural boundary (end of a run),
/// so the shared slots see one add per slot per flush. Totals are
/// identical either way — addition is associative — only the flush
/// granularity changes.
#[derive(Debug, Default, Clone)]
pub struct ProfAccum {
    /// `(ns, calls)` per slot index; grown on demand.
    counts: Vec<(u64, u64)>,
}

impl ProfAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one call of `ns` nanoseconds to `id`, locally.
    pub fn add(&mut self, id: ProfId, ns: u64) {
        if self.counts.len() <= id.0 {
            self.counts.resize(id.0 + 1, (0, 0));
        }
        let (t, c) = &mut self.counts[id.0];
        *t += ns;
        *c += 1;
    }

    /// Adds `calls` calls totalling `ns` nanoseconds to `id`, locally
    /// (for merging a sub-accumulator).
    pub fn add_many(&mut self, id: ProfId, ns: u64, calls: u64) {
        if self.counts.len() <= id.0 {
            self.counts.resize(id.0 + 1, (0, 0));
        }
        let (t, c) = &mut self.counts[id.0];
        *t += ns;
        *c += calls;
    }

    /// Flushes every nonzero slot into `reg` and resets the local
    /// counters.
    pub fn flush(&mut self, reg: &ProfRegistry) {
        for (i, (ns, calls)) in self.counts.iter_mut().enumerate() {
            if *calls > 0 {
                reg.add_many(ProfId(i), *ns, *calls);
            }
            *ns = 0;
            *calls = 0;
        }
    }
}

/// One accumulator's totals in a [`ProfReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfEntry {
    /// Slot name (e.g. `fetch_decode`, `mem.hierarchy`).
    pub name: &'static str,
    /// Whether this region is also counted inside a top-level slot.
    pub nested: bool,
    /// Total measured nanoseconds.
    pub ns: u64,
    /// Number of measured calls/segments.
    pub calls: u64,
}

/// A host-time profile snapshot: plain data, detached from the
/// registry, carried on `RunReport`s and rendered by the CLI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Accumulator totals in registration order.
    pub entries: Vec<ProfEntry>,
}

impl ProfReport {
    /// Whether anything was measured.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.calls == 0)
    }

    /// Sum of the **top-level** (non-nested) slots: the partition
    /// total compared against the run's wall-clock.
    pub fn stage_total(&self) -> Duration {
        Duration::from_nanos(
            self.entries
                .iter()
                .filter(|e| !e.nested)
                .map(|e| e.ns)
                .sum(),
        )
    }

    /// Adds another report's accumulators into this one, matching by
    /// name (e.g. merging per-window profiles of a sampled run).
    pub fn merge(&mut self, other: &ProfReport) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|m| m.name == e.name) {
                Some(mine) => {
                    mine.ns += e.ns;
                    mine.calls += e.calls;
                }
                None => self.entries.push(*e),
            }
        }
    }

    /// Renders the host-time-by-stage table: top-level slots sorted by
    /// descending time with their share of `wall`, nested slots
    /// after, and a coverage footer. `wall` is the enclosing
    /// wall-clock measurement (e.g. `RunReport::host_wall`).
    pub fn render(&self, wall: Duration) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let wall_ns = wall.as_nanos().max(1) as f64;
        let mut stages: Vec<&ProfEntry> = self.entries.iter().filter(|e| !e.nested).collect();
        stages.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.name.cmp(b.name)));
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>7} {:>12}",
            "stage", "time ms", "% wall", "calls"
        );
        for e in &stages {
            let _ = writeln!(
                out,
                "  {:<14} {:>10.3} {:>6.1}% {:>12}",
                e.name,
                e.ns as f64 / 1e6,
                100.0 * e.ns as f64 / wall_ns,
                e.calls,
            );
        }
        for e in self.entries.iter().filter(|e| e.nested) {
            let _ = writeln!(
                out,
                "  {:<14} {:>10.3} {:>6.1}% {:>12}  (nested: also counted in its stage)",
                e.name,
                e.ns as f64 / 1e6,
                100.0 * e.ns as f64 / wall_ns,
                e.calls,
            );
        }
        let total = self.stage_total();
        let _ = writeln!(
            out,
            "  stages sum {:.3} ms = {:.1}% of {:.3} ms wall",
            total.as_secs_f64() * 1e3,
            100.0 * total.as_nanos() as f64 / wall_ns,
            wall.as_secs_f64() * 1e3,
        );
        out
    }

    /// Exports the profile as JSON (`{name: {ns, calls, nested}}`,
    /// registration order). Host-side data: belongs under a `host`
    /// section, never among simulated metrics.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for e in &self.entries {
            obj = obj.field(
                e.name,
                Json::object()
                    .field("ns", Json::uint(e.ns))
                    .field("calls", Json::uint(e.calls))
                    .field("nested", Json::Bool(e.nested)),
            );
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_accumulates_and_disabled_scope_is_free() {
        let mut reg = ProfRegistry::new();
        let a = reg.slot("a");
        {
            let _s = ProfScope::enter(Some((&reg, a)));
            std::hint::black_box(1 + 1);
        }
        let _off = ProfScope::enter(None);
        drop(_off);
        let rep = reg.snapshot();
        assert_eq!(rep.entries[0].calls, 1, "disabled scope must not count");
    }

    #[test]
    fn lap_partitions_a_span_exactly() {
        let mut reg = ProfRegistry::new();
        let a = reg.slot("a");
        let b = reg.slot("b");
        let t0 = Instant::now();
        let mut lap = ProfLap::start(&reg);
        std::thread::sleep(Duration::from_millis(2));
        lap.mark(a);
        std::thread::sleep(Duration::from_millis(2));
        lap.mark(b);
        let span = t0.elapsed();
        let rep = reg.snapshot();
        let sum = rep.stage_total();
        assert!(sum <= span, "lap segments cannot exceed the span");
        assert!(
            sum >= span / 2,
            "lap segments must cover most of the span: {sum:?} vs {span:?}"
        );
        assert_eq!(rep.entries[0].calls, 1);
        assert_eq!(rep.entries[1].calls, 1);
    }

    #[test]
    fn nested_slots_are_excluded_from_the_stage_total() {
        let mut reg = ProfRegistry::new();
        let top = reg.slot("top");
        let sub = reg.slot_nested("sub");
        reg.add(top, 1_000);
        reg.add(sub, 400);
        let rep = reg.snapshot();
        assert_eq!(rep.stage_total(), Duration::from_nanos(1_000));
        assert!(!rep.is_empty());
        let text = rep.render(Duration::from_nanos(1_000));
        assert!(text.contains("nested"), "{text}");
        assert!(text.contains("100.0% of"), "{text}");
    }

    #[test]
    fn report_merges_by_name_and_exports_json() {
        let mut reg = ProfRegistry::new();
        let a = reg.slot("a");
        reg.add(a, 10);
        let mut rep = reg.snapshot();
        rep.merge(&reg.snapshot());
        assert_eq!(rep.entries[0].ns, 20);
        assert_eq!(rep.entries[0].calls, 2);
        let doc = rep.to_json();
        assert_eq!(
            doc.get("a")
                .and_then(|v| v.get("ns"))
                .and_then(Json::as_u64),
            Some(20)
        );
    }

    #[test]
    fn index_of_finds_registered_slots() {
        let mut reg = ProfRegistry::new();
        let a = reg.slot("alpha");
        assert_eq!(reg.index_of("alpha"), Some(a));
        assert_eq!(reg.index_of("beta"), None);
    }
}
