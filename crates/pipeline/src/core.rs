//! The cycle loop: fetch → rename → issue → execute → memory → commit,
//! with scheme-specific gating and doppelganger integration.

use crate::attribution::LoadSiteTable;
use crate::calendar::{Calendar, Event, EventKind};
use crate::config::CoreConfig;
use crate::cpi::{Charge, CpiAccount, CpiComponent, CpiStack, SquashKind};
use crate::frontend::Frontend;
use crate::iq::IssueQueue;
use crate::lsq::{forward_value, overlap, LoadState, Lq, LqEntry, Overlap, Sq, SqEntry};
use crate::regfile::{PhysReg, RegFile};
use crate::rob::{BranchInfo, ExecState, Rob, RobEntry};
use crate::sampler::{OccupancySample, OccupancySampler, OccupancySeries};
use crate::shadow::{Seq, ShadowTracker};
use crate::soa::SlotHandle;
use crate::stats::CoreStats;
use crate::taint::TaintTracker;
use crate::wake::{MemSets, VisWake};
use dgl_core::{
    rules, AddressPredictor, ApStats, DelayCause, DoppelgangerState, SchemeKind, Verification,
};
use dgl_isa::{emu::effective_addr, Op, Program, Reg, SparseMemory, Src, Width};
use dgl_mem::{
    AccessKind, CacheStats, Level, MemReqId, MemRequest, MemResponse, MemorySystem, ResponsePayload,
};
use dgl_predictor::{BranchPredictor, ValuePredictor, ValuePredictorConfig, VpStats};
use dgl_stats::{Histogram, MetricsRegistry, ProfAccum, ProfId, ProfRegistry, ProfReport};
use dgl_trace::{DglEvent, DiscardReason, InstKind, MemEvent, Stage, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Error produced by [`Core::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// No instruction committed for the configured deadlock threshold —
    /// always a simulator bug, never an expected outcome.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Instructions committed before the hang.
        committed: u64,
        /// Diagnostic description of the ROB head.
        head: String,
    },
    /// A committed indirect jump targeted an instruction index outside
    /// the program (matches [`dgl_isa::EmuError::BadIndirectTarget`]).
    BadIndirectTarget {
        /// PC of the jump.
        pc: usize,
        /// The invalid target.
        target: u64,
    },
    /// The simulation infrastructure itself failed — e.g. a worker
    /// thread panicked while measuring a matrix row. Carries the panic
    /// message (or other diagnostic) verbatim.
    Internal {
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock {
                cycle,
                committed,
                head,
            } => write!(
                f,
                "pipeline deadlock at cycle {cycle} after {committed} commits (head: {head})"
            ),
            RunError::BadIndirectTarget { pc, target } => {
                write!(f, "indirect jump at {pc} to invalid target {target}")
            }
            RunError::Internal { message } => {
                write!(f, "internal simulator failure: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// How a [`RunReport`]'s numbers were produced: a whole-program
/// detailed run, or one sampled measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Provenance {
    /// Whole-program detailed simulation (the default).
    #[default]
    Full,
    /// One sampled measurement window
    /// ([`Core::run_window`]): the statistics cover only the measured
    /// slice, after a stats-frozen warmup that started from a
    /// golden-model checkpoint.
    SampledWindow {
        /// Retired-instruction index where the detailed core took over
        /// from the functional emulator.
        checkpoint_inst: u64,
        /// Instructions committed during the warmup slice (whose
        /// statistics were discarded).
        warmup_committed: u64,
    },
}

/// Final state and statistics of a finished run.
#[derive(Debug)]
pub struct RunReport {
    /// Whether `halt` committed (vs. hitting the cycle budget).
    pub halted: bool,
    /// Instructions committed.
    pub committed: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Core counters.
    pub stats: CoreStats,
    /// Address-predictor coverage/accuracy (Figure 7).
    pub ap: ApStats,
    /// `(l1, l2, l3)` cache statistics (Figure 8).
    pub caches: (CacheStats, CacheStats, CacheStats),
    /// Branch predictor `(predictions, mispredictions)`.
    pub bpred: (u64, u64),
    /// Value-predictor statistics (all zero unless the DoM+VP
    /// comparison mode was enabled).
    pub vp: VpStats,
    /// Distribution of load dispatch-to-propagation latencies in
    /// cycles: the schemes' delays made visible (DoM's blocked misses
    /// appear as a heavy tail; doppelgangers move it back).
    pub load_latency: Histogram,
    /// Per-static-load doppelganger attribution: which PCs issued,
    /// propagated, and discarded doppelgangers, and their observed
    /// latencies. Column sums equal the aggregate [`CoreStats`]
    /// counters exactly.
    pub load_sites: LoadSiteTable,
    /// Occupancy time series, present when
    /// [`Core::enable_occupancy_sampling`] was called.
    pub occupancy: Option<OccupancySeries>,
    /// Host wall-clock time the simulation took (the measured slice
    /// only, for sampled windows). Host-side observability — never
    /// serialized into manifests, which must be machine-independent.
    pub host_wall: std::time::Duration,
    /// Host-time-by-stage profile, present when
    /// [`Core::enable_profiling`] was called. A snapshot of the
    /// registry at report time — when the registry is shared across a
    /// matrix, it covers every core's accumulated time so far. Like
    /// `host_wall`: host-side only, never serialized into manifests.
    pub prof: Option<ProfReport>,
    /// Final architectural register values.
    pub regs: [i64; dgl_isa::reg::NUM_REGS],
    /// Final data memory image (compare against the golden model).
    pub memory: SparseMemory,
    /// The memory system's observation trace, for security
    /// experiments: `(line, event)` pairs (see [`MemorySystem::trace`]),
    /// empty unless [`Core::set_trace`] enabled it. The final cache
    /// contents stay in the core; probe them through
    /// [`Core::memory_system`] after [`Core::run_in_place`].
    pub mem_trace: Vec<(u64, MemEvent)>,
    /// The structured event sink installed via
    /// [`Core::set_trace_sink`], handed back so the caller can drain
    /// and export it. `None` when tracing was off.
    pub trace_sink: Option<Box<dyn TraceSink>>,
    /// Whether this report covers a whole program or one sampled
    /// measurement window.
    pub provenance: Provenance,
    /// Cycles the skip-ahead kernel fast-forwarded across instead of
    /// ticking (see [`Core::set_elision`]). Host-side observability:
    /// elision never changes simulated results, and this count is
    /// excluded from [`metrics`](RunReport::metrics) and manifests so
    /// they stay byte-identical with elision off and on.
    pub elided_cycles: u64,
    /// The retired-instruction event stream (loads, stores, resolved
    /// control flow), in commit order, present when
    /// [`Core::enable_commit_log`] was called. Mirrors the golden
    /// model's [`dgl_isa::ArchEvent`] emission rules exactly, so
    /// differential testing can compare the two streams element-wise.
    pub commit_log: Option<Vec<dgl_isa::ArchEvent>>,
    /// Exact cycle-loss accounting (CPI stack with per-scheme delay
    /// provenance). Always `Some` in a report a [`Core`] builds.
    /// Deliberately excluded from [`metrics`](RunReport::metrics):
    /// manifests carry it in a dedicated versioned `cpi` section.
    pub cpi: Option<CpiStack>,
}

impl RunReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Architectural value of `r` at the end of the run.
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Assembles the full metric set — core counters, predictor and
    /// cache statistics, the branch predictor, and the load-latency
    /// distribution — into one [`MetricsRegistry`]. Pure observation
    /// of finished-run state; nothing host-dependent is included, so
    /// the export is deterministic for a given simulation.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.stats.publish(&mut reg);
        self.ap.publish(&mut reg);
        let (l1, l2, l3) = self.caches;
        l1.publish(&mut reg, "l1");
        l2.publish(&mut reg, "l2");
        l3.publish(&mut reg, "l3");
        reg.counter("bpred.predictions", self.bpred.0);
        reg.counter("bpred.mispredictions", self.bpred.1);
        self.vp.publish(&mut reg);
        reg.histogram("core.load_latency", self.load_latency.clone());
        reg
    }

    /// Simulated kilo-instructions committed per host second, from
    /// [`host_wall`](Self::host_wall). Zero when the wall time was not
    /// measured (e.g. a report assembled outside `run`). Sub-millisecond
    /// walls (tiny quick runs, coarse clocks) are clamped to 1 ms so a
    /// near-zero denominator cannot report absurd throughput. Host-side
    /// only — excluded from [`metrics`](Self::metrics) and manifests.
    pub fn kips(&self) -> f64 {
        if self.host_wall.is_zero() {
            return 0.0;
        }
        let secs = self.host_wall.as_secs_f64().max(1e-3);
        self.committed as f64 / 1000.0 / secs
    }
}

/// Builds a [`ProfRegistry`] carrying the slots
/// [`Core::enable_profiling`] requires: one top-level slot per tick
/// segment (the segments partition the tick, so their sum tracks the
/// run's wall-clock) plus two nested regions (`recovery` runs inside
/// whichever stage squashes; `mem.hierarchy` inside the stages that
/// drive the memory system).
///
/// Build one, wrap it in an `Arc`, and hand clones to every core whose
/// host time should accumulate together (the atomic slots make one
/// registry safe to share across an experiment matrix's worker
/// threads).
pub fn core_prof_registry() -> ProfRegistry {
    let mut reg = ProfRegistry::new();
    for name in [
        "fetch_decode",
        "dispatch",
        "issue",
        "execute",
        "memory",
        "writeback",
        "commit",
    ] {
        reg.slot(name);
    }
    reg.slot_nested("recovery");
    reg.slot_nested("mem.hierarchy");
    reg
}

/// Resolved slot indices for the tick-loop lap timer and the nested
/// regions (copied out of the registry once at
/// [`Core::enable_profiling`], cheap to carry).
#[derive(Debug, Clone, Copy)]
struct CoreProfIds {
    fetch_decode: ProfId,
    dispatch: ProfId,
    issue: ProfId,
    execute: ProfId,
    memory: ProfId,
    writeback: ProfId,
    commit: ProfId,
    recovery: ProfId,
    hierarchy: ProfId,
}

/// The core's handle on an enabled profiling registry.
#[derive(Debug, Clone)]
pub(crate) struct CoreProf {
    reg: Arc<ProfRegistry>,
    ids: CoreProfIds,
}

#[derive(Debug, Clone, Copy)]
struct SbEntry {
    addr: u64,
    req: Option<MemReqId>,
}

/// The out-of-order core.
///
/// A `Core` simulates one program run at a time: construct, configure,
/// [`run`](Self::run), inspect the returned [`RunReport`]. See the crate
/// docs for an example. A core can also be kept and reused:
/// [`run_in_place`](Self::run_in_place) leaves the final
/// microarchitectural state in the core, and [`reset`](Self::reset)
/// returns it to the fresh state without giving up its allocations.
/// Cycle accounting is part of every core: each report carries an
/// exact CPI stack in [`RunReport::cpi`].
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    /// Stage modules ask [`dgl_core::rules`] every scheme-conditional
    /// question with this tag and never match on it directly.
    scheme: SchemeKind,
    cycle: u64,
    next_seq: Seq,
    rf: RegFile,
    taint: TaintTracker,
    shadows: ShadowTracker,
    front: Frontend,
    rob: Rob,
    /// The issue queue over ROB slots: entries to evaluate sit in an
    /// age-ordered ready set, blocked ones on the waiter list of their
    /// blocking register or on the taint list (see [`IssueQueue`]).
    iq: IssueQueue,
    /// [`TaintTracker::version`] when the taint list was last woken.
    iq_taint_seen: u64,
    lq: Lq,
    sq: Sq,
    store_buffer: VecDeque<SbEntry>,
    /// Length of the store buffer's draining prefix: drains issue
    /// oldest-first and a response removes its entry in place, so the
    /// entries with a request in flight are always the oldest ones.
    sb_draining: usize,
    mem: MemorySystem,
    data: SparseMemory,
    ap: AddressPredictor,
    /// Scheduled functional-unit and AGU completions (see [`Calendar`]).
    events: Calendar,
    /// Who waits on each in-flight memory request (see [`ReqOwners`]).
    req_owners: ReqOwners,
    /// Per physical register, the ROB handle of the instruction that
    /// last renamed it: NDA-P-eager's producer lookup. A handle whose
    /// entry has left the ROB no longer resolves.
    producer: Box<[SlotHandle]>,
    prefetch_q: VecDeque<u64>,
    halted: bool,
    bad_indirect: Option<(usize, u64)>,
    stats: CoreStats,
    cycles_since_commit: u64,
    /// `(cycle, addr)` external invalidations to inject (coherence
    /// tests, §4.5). Sorted ascending by cycle.
    pending_invalidations: Vec<(u64, u64)>,
    /// Value predictor for the DoM+VP comparison mode (§2.3); `None`
    /// unless [`enable_value_prediction`](Self::enable_value_prediction)
    /// was called.
    vp: Option<ValuePredictor>,
    /// Dispatch-to-propagation latency of every load (how the schemes'
    /// delays actually look).
    load_latency: Histogram,
    /// Per-PC doppelganger attribution, incremented in lockstep with
    /// the aggregate counters in `stats`.
    sites: LoadSiteTable,
    /// Cycle-domain occupancy sampler; `None` (the default) keeps the
    /// hot path free of sampling work.
    sampler: Option<OccupancySampler>,
    /// Structured event sink. `None` (the default) makes every `emit`
    /// a single never-taken branch, keeping the tracing-off hot path
    /// free.
    sink: Option<Box<dyn TraceSink>>,
    /// Host-side self-profiling handle
    /// ([`enable_profiling`](Self::enable_profiling)); `None` (the
    /// default) keeps the tick loop free of clock reads. Host-only:
    /// the simulation never reads it back, so results are
    /// byte-identical with profiling off and on.
    prof: Option<CoreProf>,
    /// Local batch for profiling measurements: the tick loop adds here
    /// (plain integer adds, no shared atomics) and the totals reach the
    /// shared registry in one flush at report time.
    prof_accum: ProfAccum,
    /// Skip-ahead elision enable ([`set_elision`](Self::set_elision)).
    elide: bool,
    /// Whether the current tick changed any simulated state (set by the
    /// stage modules; cleared at the top of every tick). A tick that
    /// ends with this still false proves the machine is quiescent and
    /// only a timed wake can change anything.
    tick_activity: bool,
    /// Cycles fast-forwarded by [`skip_idle_gap`](Self::skip_idle_gap).
    elided_cycles: u64,
    /// Reusable buffer for memory responses (allocation-free tick).
    mem_responses: Vec<MemResponse>,
    /// The memory stage's candidates: `WaitIssue` loads, loads whose
    /// doppelganger can still issue, and stores waiting for data, each
    /// parked on its data register until that register propagates (see
    /// [`MemSets`]).
    mem_sets: MemSets,
    /// What the visibility sweep evaluates: loads, locked results and
    /// deferred branches parked on the visibility point, loads woken
    /// by a store or a direct write, and taint-deferred branches (see
    /// [`VisWake`]).
    vis: VisWake,
    /// Commit-order architectural event log; `None` (the default) keeps
    /// the commit stage free of logging work. See
    /// [`enable_commit_log`](Self::enable_commit_log).
    commit_log: Option<Vec<dgl_isa::ArchEvent>>,
    /// Exact cycle-loss accounting: every simulated cycle is attributed
    /// at commit to one cause in the fixed CPI-stack taxonomy
    /// ([`CpiComponent`]), with scheme delays broken down per
    /// [`dgl_core::DelayCause`]. Write-only with respect to simulation:
    /// nothing in the pipeline reads it back (see [`crate::cpi`]).
    cpi: CpiAccount,
}

impl Core {
    /// Creates a core running `scheme`, with doppelganger address
    /// prediction on or off. The prefetcher is always on (paper §6).
    ///
    /// Allocates every structure `cfg` sizes, then [`reset`](Self::reset)s
    /// the core: the fresh state is defined in one place, there.
    pub fn new(cfg: CoreConfig, scheme: SchemeKind, address_prediction: bool) -> Self {
        cfg.validate();
        let rob = Rob::with_capacity(cfg.rob_entries, RobEntry::new(0, 0, Op::Nop));
        let lq = Lq::with_capacity(
            cfg.lq_entries,
            LqEntry::new(0, 0, Width::B8, DoppelgangerState::default()),
        );
        let sq = Sq::with_capacity(cfg.sq_entries, SqEntry::new(0, 0, Width::B8, PhysReg(0)));
        // Values here only fill the struct: `reset` sets every field.
        let mut core = Self {
            cfg,
            scheme,
            cycle: 0,
            next_seq: 0,
            rf: RegFile::new(cfg.phys_regs),
            taint: TaintTracker::new(cfg.phys_regs),
            shadows: ShadowTracker::new(),
            front: Frontend::new(cfg.decode_width, cfg.branch),
            iq: IssueQueue::new(rob.slots(), cfg.phys_regs),
            iq_taint_seen: 0,
            vis: VisWake::new(lq.slots(), sq.slots(), rob.slots()),
            mem_sets: MemSets::new(lq.slots(), sq.slots(), cfg.phys_regs),
            rob,
            lq,
            sq,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer_entries),
            sb_draining: 0,
            mem: MemorySystem::new(cfg.hierarchy),
            data: SparseMemory::new(),
            ap: AddressPredictor::new(cfg.doppelganger, address_prediction),
            events: Calendar::new(),
            req_owners: ReqOwners::default(),
            producer: vec![SlotHandle { slot: 0, gen: 0 }; cfg.phys_regs].into_boxed_slice(),
            prefetch_q: VecDeque::new(),
            halted: false,
            bad_indirect: None,
            stats: CoreStats::default(),
            cycles_since_commit: 0,
            pending_invalidations: Vec::new(),
            vp: None,
            load_latency: Histogram::new(),
            sites: LoadSiteTable::new(),
            sampler: None,
            sink: None,
            prof: None,
            prof_accum: ProfAccum::new(),
            elide: true,
            tick_activity: false,
            elided_cycles: 0,
            mem_responses: Vec::new(),
            commit_log: None,
            cpi: CpiAccount::new(),
        };
        core.reset(scheme, address_prediction);
        core
    }

    /// Returns the core to exactly the state [`new`](Self::new) builds
    /// for its configuration, `scheme` and `address_prediction`,
    /// whatever its last run did, one that ended in a [`RunError`]
    /// included. Every allocation is kept: the rings, bitsets and
    /// waiter lists, the register and taint files, the predictor
    /// tables, the calendar and MSHR maps, and the caches' chunks. The
    /// branch predictor rewrites only the blocks written since the last
    /// reset (see [`dgl_predictor::BranchPredictor::reset`]), and each
    /// cache visits only the chunks in use (see [`MemorySystem::reset`]),
    /// so a reset costs what the runs touched, not the size of the
    /// tables.
    ///
    /// Everything configured after `new` is cleared as well: tracing,
    /// the trace sink, profiling, occupancy sampling, value prediction,
    /// the commit log and scheduled invalidations, with elision back
    /// on. Re-apply them after a reset.
    pub fn reset(&mut self, scheme: SchemeKind, address_prediction: bool) {
        // Every field is named, so a new one cannot be left out.
        let Self {
            cfg: _, // the geometry is fixed at `new`
            scheme: scheme_kind,
            cycle,
            next_seq,
            rf,
            taint,
            shadows,
            front,
            rob,
            iq,
            iq_taint_seen,
            lq,
            sq,
            store_buffer,
            sb_draining,
            mem,
            data,
            ap,
            events,
            req_owners,
            producer,
            prefetch_q,
            halted,
            bad_indirect,
            stats,
            cycles_since_commit,
            pending_invalidations,
            vp,
            load_latency,
            sites,
            sampler,
            sink,
            prof,
            prof_accum,
            elide,
            tick_activity,
            elided_cycles,
            mem_responses,
            mem_sets,
            vis,
            commit_log,
            cpi,
        } = self;
        *scheme_kind = scheme;
        *cycle = 0;
        *next_seq = 1;
        rf.reset();
        taint.reset();
        shadows.reset();
        front.reset();
        rob.reset();
        iq.reset();
        *iq_taint_seen = 0;
        lq.reset();
        sq.reset();
        store_buffer.clear();
        *sb_draining = 0;
        mem.reset();
        *data = SparseMemory::new();
        ap.reset(address_prediction);
        events.reset();
        req_owners.reset();
        producer.fill(SlotHandle { slot: 0, gen: 0 });
        prefetch_q.clear();
        *halted = false;
        *bad_indirect = None;
        *stats = CoreStats::default();
        *cycles_since_commit = 0;
        pending_invalidations.clear();
        *vp = None;
        *load_latency = Histogram::new();
        *sites = LoadSiteTable::new();
        *sampler = None;
        *sink = None;
        *prof = None;
        *prof_accum = ProfAccum::new();
        *elide = true;
        *tick_activity = false;
        *elided_cycles = 0;
        mem_responses.clear();
        mem_sets.reset();
        vis.reset();
        *commit_log = None;
        *cpi = CpiAccount::new();
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Enables or disables skip-ahead cycle elision (on by default).
    ///
    /// With elision on, a tick that changes no simulated state lets the
    /// kernel fast-forward the cycle counter to just before the next
    /// timed wake (pending memory fill, functional-unit completion,
    /// fetch-redirect expiry, scheduled invalidation), bumping the
    /// idle-cycle counters by the elided span. Simulated results are
    /// byte-identical either way — this knob exists so the
    /// `elision_identical` test can pin that equivalence.
    pub fn set_elision(&mut self, enabled: bool) {
        self.elide = enabled;
    }

    /// Enables host-side self-profiling into `reg`, which must carry
    /// the slots of [`core_prof_registry`] (build it there). The tick
    /// loop then partitions its wall time across per-stage slots, with
    /// `recovery` and `mem.hierarchy` measured as nested regions, and
    /// [`RunReport::prof`] carries a snapshot. Pure host-side
    /// observation: simulated results are byte-identical with
    /// profiling off and on.
    ///
    /// # Panics
    ///
    /// Panics when `reg` lacks any of the expected slots.
    pub fn enable_profiling(&mut self, reg: Arc<ProfRegistry>) {
        let slot = |name: &str| -> ProfId {
            reg.index_of(name)
                .unwrap_or_else(|| panic!("profiling registry lacks slot `{name}`"))
        };
        let ids = CoreProfIds {
            fetch_decode: slot("fetch_decode"),
            dispatch: slot("dispatch"),
            issue: slot("issue"),
            execute: slot("execute"),
            memory: slot("memory"),
            writeback: slot("writeback"),
            commit: slot("commit"),
            recovery: slot("recovery"),
            hierarchy: slot("mem.hierarchy"),
        };
        self.prof = Some(CoreProf { reg, ids });
    }

    /// Enables occupancy sampling: every `interval_cycles` the core
    /// records ROB/IQ/LSQ occupancy, MSHR in-flight count, the DoM
    /// delayed-load backlog, and the window's IPC into
    /// [`RunReport::occupancy`]. Sampling is read-only and cannot
    /// change any simulated result.
    ///
    /// # Panics
    ///
    /// Panics when `interval_cycles` is zero.
    pub fn enable_occupancy_sampling(&mut self, interval_cycles: u64) {
        self.sampler = Some(OccupancySampler::new(interval_cycles));
    }

    /// Enables load **value** prediction — the prior approach the paper
    /// compares doppelganger loads against (§2.3, §8): predicted values
    /// propagate at dispatch and are validated when the real load
    /// completes; a misprediction squashes every younger instruction.
    ///
    /// # Panics
    ///
    /// Panics when combined with address prediction (the comparison is
    /// one-or-the-other) or with NDA-P/STT (the paper's VP baseline is
    /// DoM; eager propagation would void NDA-P's and STT's invariants).
    pub fn enable_value_prediction(&mut self) {
        assert!(
            !self.address_prediction(),
            "value and address prediction are alternatives, not companions"
        );
        assert!(
            matches!(self.scheme, SchemeKind::DoM | SchemeKind::Baseline),
            "value prediction is modelled for DoM (and the unsafe baseline) only"
        );
        self.vp = Some(ValuePredictor::new(ValuePredictorConfig::default()));
    }

    /// Enables commit-order architectural event logging: every retired
    /// load, store, and resolved control-flow instruction appends a
    /// [`dgl_isa::ArchEvent`] to [`RunReport::commit_log`], following
    /// the golden model's emission rules (loads and stores report their
    /// effective address; conditional branches report their evaluated
    /// direction; indirect jumps and returns report `taken: true` with
    /// the resolved target; direct jumps and calls emit nothing). This
    /// is the timing core's half of the co-simulation oracle: the
    /// stream must match [`dgl_isa::Emulator::step_observed`] exactly.
    /// Pure observation — simulated results are byte-identical with
    /// logging off and on.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// Schedules an external (cross-core) invalidation of `addr`'s line
    /// to arrive at `cycle` — the coherence stimulus for the memory
    /// consistency experiments of §4.5. May be called multiple times;
    /// order does not matter.
    pub fn inject_invalidation_at(&mut self, cycle: u64, addr: u64) {
        self.pending_invalidations.push((cycle, addr));
        self.pending_invalidations.sort_unstable();
    }

    /// Enables observation-trace recording in the memory system (for
    /// security experiments). Call before [`run`](Self::run).
    pub fn set_trace(&mut self, enabled: bool) {
        self.mem.set_trace(enabled);
    }

    /// Installs a structured [`TraceSink`] receiving per-instruction
    /// stage stamps, doppelganger lifecycle transitions, and memory
    /// hierarchy events. Call before [`run`](Self::run); the sink is
    /// handed back in [`RunReport::trace_sink`].
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Pre-warms a cache line at every level (test conditioning, e.g.
    /// placing an attacker's probe array or a DoM secret in L1).
    pub fn warm_line(&mut self, addr: u64) {
        self.mem.warm(addr);
    }

    /// Pre-warms every line of each `(start, bytes)` range, leaving
    /// the state [`warm_line`](Self::warm_line) on each line in turn
    /// would (see [`MemorySystem::warm_ranges`]).
    pub fn warm_ranges(&mut self, ranges: &[(u64, u64)]) {
        self.mem.warm_ranges(ranges);
    }

    /// The memory hierarchy as currently conditioned (cache contents,
    /// replacement state, MSHRs), for probes and tests. Its caches own
    /// the sets they have written, so a clone of it copies every one
    /// of them; sampled simulation instead warms a bare
    /// [`MemorySystem`], freezes it (see [`MemorySystem::freeze`]) and
    /// hands windows cheap clones through
    /// [`install_memory_system`](Self::install_memory_system).
    pub fn memory_system(&self) -> &MemorySystem {
        &self.mem
    }

    /// Replaces the memory hierarchy with a previously captured
    /// snapshot (see [`memory_system`](Self::memory_system)). Only
    /// meaningful before the core starts running.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's geometry differs from this core's
    /// configured hierarchy — timing would silently change otherwise.
    pub fn install_memory_system(&mut self, mem: MemorySystem) {
        assert!(
            mem.config() == self.cfg.hierarchy,
            "memory-system snapshot geometry does not match the core's hierarchy config"
        );
        self.mem = mem;
    }

    /// Replaces the branch predictor with a previously trained one
    /// (functional warming during sampled fast-forward). Only
    /// meaningful before the core starts running.
    ///
    /// # Panics
    ///
    /// Panics when the predictor's geometry differs from this core's
    /// configured branch predictor.
    pub fn install_branch_predictor(&mut self, bp: BranchPredictor) {
        assert!(
            bp.config() == self.cfg.branch,
            "branch-predictor snapshot geometry does not match the core's config"
        );
        *self.front.bpred_mut() = bp;
    }

    /// Whether this core runs doppelganger address prediction (the
    /// flag an installed address predictor must carry).
    pub fn address_prediction(&self) -> bool {
        self.ap.address_prediction()
    }

    /// Replaces the address predictor (stride table) with a previously
    /// trained one (functional warming during sampled fast-forward).
    /// Only meaningful before the core starts running.
    ///
    /// # Panics
    ///
    /// Panics when the predictor's configuration or its
    /// address-prediction flag differs from this core's.
    pub fn install_address_predictor(&mut self, ap: AddressPredictor) {
        assert!(
            (ap.config(), ap.address_prediction()) == (self.ap.config(), self.address_prediction()),
            "address-predictor snapshot config or flag does not match the core's"
        );
        self.ap = ap;
    }

    /// Runs `program` on `memory` until `halt` commits or `max_cycles`
    /// elapse, consuming the core: [`run_in_place`](Self::run_in_place)
    /// on a core nobody keeps.
    ///
    /// # Errors
    ///
    /// As [`run_in_place`](Self::run_in_place).
    pub fn run(
        mut self,
        program: &Program,
        memory: SparseMemory,
        max_cycles: u64,
    ) -> Result<RunReport, RunError> {
        self.run_in_place(program, memory, max_cycles)
    }

    /// Runs `program` on `memory` until `halt` commits or `max_cycles`
    /// elapse, leaving the final microarchitectural state in the core:
    /// probe the caches through [`memory_system`](Self::memory_system)
    /// afterwards. Run a fresh or [`reset`](Self::reset) core. The
    /// report takes the run's results out of the core (statistics,
    /// memory image, commit log, trace sink), so reset the core before
    /// it runs again.
    ///
    /// # Errors
    ///
    /// [`RunError::Deadlock`] when no instruction commits for the
    /// configured threshold; [`RunError::BadIndirectTarget`] when a
    /// committed indirect jump leaves the program, mirroring the golden
    /// model.
    pub fn run_in_place(
        &mut self,
        program: &Program,
        memory: SparseMemory,
        max_cycles: u64,
    ) -> Result<RunReport, RunError> {
        debug_assert!(
            self.cycle == 0 && self.stats.committed == 0,
            "run a fresh or reset core"
        );
        self.data = memory;
        let t0 = std::time::Instant::now();
        self.run_until(program, max_cycles, None)?;
        let mut report = self.take_report(0, Provenance::Full);
        report.host_wall = t0.elapsed();
        Ok(report)
    }

    /// Runs one sampled measurement window from a golden-model
    /// [`Checkpoint`](dgl_isa::Checkpoint), consuming the core.
    ///
    /// The architectural state (registers, memory, PC) is injected
    /// first. The core then commits up to `warmup_insts` instructions
    /// with every microarchitectural structure live — caches fill, the
    /// stride table and branch predictor train at commit as always —
    /// after which all statistics are discarded. The following
    /// *measurement* slice runs until `measure_insts` further commits,
    /// `halt`, or `max_cycles` total cycles; the returned report's
    /// statistics (and [`RunReport::cycles`]) cover only that slice,
    /// with [`RunReport::provenance`] recording the window's origin.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`run`](Self::run).
    pub fn run_window(
        mut self,
        program: &Program,
        checkpoint: &dgl_isa::Checkpoint,
        warmup_insts: u64,
        measure_insts: u64,
        max_cycles: u64,
    ) -> Result<RunReport, RunError> {
        self.seed_from_checkpoint(checkpoint);
        let provenance = |warmup_committed| Provenance::SampledWindow {
            checkpoint_inst: checkpoint.retired,
            warmup_committed,
        };
        if checkpoint.halted {
            return Ok(self.take_report(0, provenance(0)));
        }
        self.run_until(program, max_cycles, Some(warmup_insts))?;
        let warmup_committed = self.stats.committed;
        let measure_base = self.cycle;
        self.reset_measurement_stats();
        let t0 = std::time::Instant::now();
        if !self.halted {
            self.run_until(program, max_cycles, Some(measure_insts))?;
        }
        let mut report = self.take_report(measure_base, provenance(warmup_committed));
        report.host_wall = t0.elapsed();
        Ok(report)
    }

    /// Injects a golden-model checkpoint's architectural state:
    /// registers through the RAT, the memory image, and the fetch PC.
    fn seed_from_checkpoint(&mut self, cp: &dgl_isa::Checkpoint) {
        for r in Reg::all() {
            self.rf.set_arch_value(r, cp.regs[r.index()]);
        }
        self.data = cp.memory.clone();
        self.halted = cp.halted;
        // Redirect fetch to the checkpoint PC with no penalty: the
        // front-end starts clean, exactly as it would at cycle 0.
        self.front.redirect(cp.pc, 0, 0, None);
    }

    /// Discards statistics at the warmup/measurement boundary while
    /// keeping all trained microarchitectural state (cache contents,
    /// stride table, branch predictor, value predictor, in-flight
    /// requests).
    fn reset_measurement_stats(&mut self) {
        self.stats = CoreStats::default();
        self.ap.reset_stats();
        self.front.bpred_mut().reset_stats();
        self.mem.reset_stats();
        if let Some(vp) = self.vp.as_mut() {
            vp.reset_stats();
        }
        self.load_latency = Histogram::new();
        self.sites = LoadSiteTable::new();
        if let Some(s) = self.sampler.as_mut() {
            // The commit counter just restarted from zero; the IPC
            // window must restart with it.
            s.reset(0);
        }
        self.cpi.reset(self.cycle);
    }

    /// Ticks until `halt` commits, `max_cycles` elapse, or — when
    /// `commit_target` is set — that many instructions have committed
    /// (counted from [`CoreStats::committed`], so callers reset stats
    /// to restart the count).
    fn run_until(
        &mut self,
        program: &Program,
        max_cycles: u64,
        commit_target: Option<u64>,
    ) -> Result<(), RunError> {
        while !self.halted
            && self.cycle < max_cycles
            && commit_target.is_none_or(|t| self.stats.committed < t)
        {
            self.tick(program)?;
            if let Some((pc, target)) = self.bad_indirect {
                return Err(RunError::BadIndirectTarget { pc, target });
            }
            // Skip-ahead: a tick that changed nothing proves every
            // cycle up to the next timed wake would change nothing
            // either. Fast-forward before the deadlock check so a
            // genuine hang is declared at the identical cycle either
            // way.
            if self.elide && !self.tick_activity {
                self.skip_idle_gap(max_cycles);
            }
            if self.cycles_since_commit > self.cfg.deadlock_cycles {
                let head = if self.rob.is_empty() {
                    "empty rob".to_owned()
                } else {
                    let e = self.rob.get(0);
                    format!(
                        "seq {} pc {} {:?} ({}) branch={:?} locked={} srcs_prop={:?} lq={:?}",
                        e.seq,
                        e.pc,
                        e.state,
                        e.op,
                        e.branch,
                        e.locked,
                        e.srcs
                            .as_slice()
                            .iter()
                            .map(|&p| self.rf.is_propagated(p))
                            .collect::<Vec<_>>(),
                        (!self.lq.is_empty()).then(|| (self.lq.seq(0), self.lq.state(0))),
                    )
                };
                return Err(RunError::Deadlock {
                    cycle: self.cycle,
                    committed: self.stats.committed,
                    head,
                });
            }
        }
        Ok(())
    }

    /// The earliest future cycle at which time passage alone can change
    /// simulated state: a functional-unit completion, a memory-system
    /// fill, the front-end's redirect/latency expiry, or a scheduled
    /// external invalidation. Wakes at or before the current cycle are
    /// ignored — the just-finished idle tick proved those blockages are
    /// not time-driven (e.g. fetch unstalled but the queue full, or an
    /// MSHR-full retry waiting on a fill that has its own wake).
    fn next_wake(&self) -> Option<u64> {
        let candidates = [
            self.events.next_after(self.cycle),
            self.mem.next_ready(),
            self.front.next_wake(self.cfg.frontend_depth),
            self.pending_invalidations.first().map(|&(c, _)| c),
        ];
        candidates
            .into_iter()
            .flatten()
            .filter(|&c| c > self.cycle)
            .min()
    }

    /// Fast-forwards across a provably-idle gap: advances the cycle
    /// counter to just before the next timed wake (or, with no wake in
    /// sight, to the deadlock/budget horizon), bumping exactly the
    /// counters an idle tick would have bumped — `commit_idle_cycles`
    /// and the deadlock watchdog — and replaying the occupancy samples
    /// the skipped cycles would have taken (queue depths are frozen
    /// while idle, so each is identical). No other state is touched,
    /// which is why results stay byte-identical.
    fn skip_idle_gap(&mut self, max_cycles: u64) {
        // An idle tick cannot commit, so `cycles_since_commit` grows by
        // one per elided cycle; cap the span so the watchdog fires at
        // the same cycle a ticked run would have declared the deadlock.
        let watchdog_room = (self.cfg.deadlock_cycles + 1).saturating_sub(self.cycles_since_commit);
        let budget_room = max_cycles.saturating_sub(self.cycle);
        let mut span = watchdog_room.min(budget_room);
        if let Some(wake) = self.next_wake() {
            // The tick *at* the wake cycle must run; skip to just before.
            span = span.min(wake - 1 - self.cycle);
        }
        if span == 0 {
            return;
        }
        let from = self.cycle;
        self.cycle += span;
        self.stats.commit_idle_cycles += span;
        self.cycles_since_commit += span;
        self.elided_cycles += span;
        // The gap's state is frozen, so every elided cycle classifies
        // exactly like the idle tick that proved the gap — replay that
        // charge so the stack stays exact with elision on.
        self.cpi.charge_gap(span);
        self.replay_occupancy_gap(from);
    }

    /// Records the occupancy samples the elided cycles in
    /// `(from, self.cycle]` would have taken. Queue depths, the MSHR
    /// count, and the commit counter are all frozen across an idle gap,
    /// so every sample is the snapshot at the gap's start with only the
    /// cycle stamp varying — exactly what a ticked run records.
    fn replay_occupancy_gap(&mut self, from: u64) {
        let interval = match self.sampler.as_ref() {
            Some(s) => s.interval(),
            None => return,
        };
        let mut at = (from / interval + 1) * interval;
        if at > self.cycle {
            return;
        }
        let template = self.occupancy_snapshot(0);
        let committed = self.stats.committed;
        let sampler = self.sampler.as_mut().expect("checked above");
        while at <= self.cycle {
            sampler.record(
                OccupancySample {
                    cycle: at,
                    ..template
                },
                committed,
            );
            at += interval;
        }
    }

    /// Assembles the final report, moving the run's results out of the
    /// core. `cycle_base` is subtracted from the cycle counter so a
    /// sampled window reports only its measured cycles.
    fn take_report(&mut self, cycle_base: u64, provenance: Provenance) -> RunReport {
        self.stats.cycles = self.cycle - cycle_base;
        let cpi = self.cpi.take_stack(self.cycle);
        // Exactness: every measured cycle lands in exactly one component.
        debug_assert!(
            cpi.sum() == cpi.total() && cpi.total() == self.stats.cycles,
            "CPI stack sum {} / total {} != measured cycles {}",
            cpi.sum(),
            cpi.total(),
            self.stats.cycles
        );
        // Locally batched profiling measurements reach the shared
        // registry now, before it is snapshotted below.
        if let Some(p) = &self.prof {
            self.prof_accum.flush(&p.reg);
        }
        // Likewise trace events a sink buffers on the core's side.
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.flush();
        }
        let mut regs = [0i64; dgl_isa::reg::NUM_REGS];
        for r in Reg::all() {
            regs[r.index()] = self.rf.arch_value(r);
        }
        RunReport {
            halted: self.halted,
            committed: self.stats.committed,
            cycles: self.cycle - cycle_base,
            stats: self.stats,
            ap: self.ap.stats(),
            caches: self.mem.stats(),
            bpred: self.front.bpred().stats(),
            vp: self
                .vp
                .as_ref()
                .map(ValuePredictor::stats)
                .unwrap_or_default(),
            load_latency: std::mem::take(&mut self.load_latency),
            load_sites: std::mem::take(&mut self.sites),
            occupancy: self.sampler.take().map(OccupancySampler::into_series),
            host_wall: std::time::Duration::ZERO,
            prof: self.prof.as_ref().map(|p| p.reg.snapshot()),
            regs,
            memory: std::mem::take(&mut self.data),
            mem_trace: self.mem.trace().to_vec(),
            trace_sink: self.sink.take(),
            provenance,
            elided_cycles: self.elided_cycles,
            commit_log: self.commit_log.take(),
            cpi: Some(cpi),
        }
    }

    fn tick(&mut self, program: &Program) -> Result<(), RunError> {
        // The lap clock partitions the tick into consecutive segments
        // (one clock read per boundary), so the per-stage host times
        // sum to the tick loop's wall time with no instrumentation
        // gaps. Segments land in the local `prof_accum` (plain adds);
        // the shared registry sees them once, at report time.
        let ids = self.prof.as_ref().map(|p| p.ids);
        let mut last = ids.map(|_| Instant::now());
        macro_rules! mark {
            ($stage:ident) => {
                if let (Some(ids), Some(last)) = (ids.as_ref(), last.as_mut()) {
                    let now = Instant::now();
                    self.prof_accum
                        .add(ids.$stage, now.duration_since(*last).as_nanos() as u64);
                    *last = now;
                }
            };
        }
        self.cycle += 1;
        self.tick_activity = false;
        // The MSHR-refusal flag describes one tick; commit-time
        // classification reads the current tick's value only.
        self.cpi.mshr_blocked = false;
        while let Some(&(c, addr)) = self.pending_invalidations.first() {
            if c > self.cycle {
                break;
            }
            self.pending_invalidations.remove(0);
            self.tick_activity = true;
            self.external_invalidate(addr);
        }
        self.handle_mem_responses();
        mark!(writeback);
        self.handle_events(program);
        mark!(execute);
        self.capture_store_data();
        self.visibility_maintenance(program);
        self.memory_issue();
        mark!(memory);
        self.issue_stage();
        mark!(issue);
        self.dispatch_stage();
        mark!(dispatch);
        self.fetch_decode_stage(program);
        mark!(fetch_decode);
        self.commit_stage(program);
        self.sample_occupancy();
        mark!(commit);
        #[cfg(debug_assertions)]
        {
            self.assert_mem_sets_consistent();
            self.assert_iq_consistent();
            self.assert_capture_consistent();
            self.assert_vis_consistent();
        }
        Ok(())
    }

    /// Runs `f` on the core as a nested host-profiling region: with
    /// profiling on, its host time is one call of the slot `slot`
    /// picks, added to the local accumulator; with it off, `f` runs
    /// behind one branch and no clock is read. Squash recovery and
    /// every memory-hierarchy call are timed here.
    fn prof_region<R>(
        &mut self,
        slot: impl FnOnce(&CoreProfIds) -> ProfId,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let Some(id) = self.prof.as_ref().map(|p| slot(&p.ids)) else {
            return f(self);
        };
        let t0 = Instant::now();
        let out = f(self);
        self.prof_accum.add(id, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Takes an occupancy sample at the end of the cycle when one is
    /// due. Pure observation: reads queue depths, writes nothing the
    /// simulation reads back.
    fn sample_occupancy(&mut self) {
        let interval = match self.sampler.as_ref() {
            Some(s) => s.interval(),
            None => return,
        };
        if !self.cycle.is_multiple_of(interval) {
            return;
        }
        let sample = self.occupancy_snapshot(self.cycle);
        let committed = self.stats.committed;
        self.sampler
            .as_mut()
            .expect("checked above")
            .record(sample, committed);
    }

    /// The occupancy sample the sampler would record right now, stamped
    /// with `cycle` (also used to replay samples across elided gaps).
    fn occupancy_snapshot(&self, cycle: u64) -> OccupancySample {
        OccupancySample {
            cycle,
            rob: self.rob.len() as u32,
            iq: self.iq.len() as u32,
            lq: self.lq.len() as u32,
            sq: self.sq.len() as u32,
            mshr: self.mem.in_flight() as u32,
            delayed_loads: (0..self.lq.len())
                .filter(|&i| self.lq.state(i) == LoadState::DelayedDoM)
                .count() as u32,
            window_ipc: 0.0, // derived by the sampler from commit deltas
        }
    }

    // ---- helpers -------------------------------------------------------

    fn rob_index(&self, seq: Seq) -> Option<usize> {
        // The ROB is sorted by seq but not contiguous (a squash leaves a
        // gap that new dispatches do not refill).
        self.rob.index_of(seq)
    }

    fn lq_index(&self, seq: Seq) -> Option<usize> {
        // Same ordering discipline as the ROB: binary search.
        self.lq.index_of(seq)
    }

    fn is_spec(&self, seq: Seq) -> bool {
        self.shadows.is_speculative(seq)
    }

    /// Everything with `seq` at or below this is non-speculative.
    fn visibility_bound(&self) -> Seq {
        self.shadows.oldest().unwrap_or(Seq::MAX)
    }

    /// The single funnel for load-state transitions: keeps the
    /// memory-issue set of `WaitIssue` loads exact, and parks the load
    /// where the visibility sweep's wake-up for its new state comes
    /// from: the visibility point for `DelayedDoM`, the blocking
    /// store's waiter row for `WaitStore`. Stage code must never write
    /// `lq.state_mut` directly.
    pub(super) fn set_load_state(&mut self, li: usize, next: LoadState) {
        let slot = self.lq.handle(li).slot;
        if next == LoadState::WaitIssue {
            self.mem_sets.wait_issue.insert(slot);
        } else {
            self.mem_sets.wait_issue.remove(slot);
        }
        *self.lq.state_mut(li) = next;
        match next {
            LoadState::DelayedDoM => self.park_load(li),
            LoadState::WaitStore(store) => {
                let si = self.sq.index_of(store).expect("blocking store in the SQ");
                let sq_slot = self.sq.handle(si).slot;
                self.vis.wait_on_store(sq_slot, slot);
            }
            _ => {}
        }
    }

    /// Parks load `li` until the visibility point passes it.
    pub(super) fn park_load(&mut self, li: usize) {
        self.vis.loads.insert(self.lq.handle(li).slot);
    }

    /// Queues load `li` for the next visibility sweep: one of its own
    /// inputs was written outside the sweep.
    pub(super) fn recheck_load(&mut self, li: usize) {
        self.vis.due.insert(self.lq.handle(li).slot);
    }

    /// The store at SQ index `si` captured its data or is leaving the
    /// SQ: the loads parked on it become due.
    pub(super) fn wake_store_waiters(&mut self, si: usize) {
        let sq_slot = self.sq.handle(si).slot;
        self.vis
            .wake_store(sq_slot, self.lq.head_slot(), self.lq.len());
    }

    /// Hands every register visibility transition since the last call
    /// to its waiters: issue-queue entries blocked on the register
    /// become ready, and stores waiting for it as their data become
    /// due for capture once it has propagated. The memory stage calls
    /// this before its capture walk and the issue stage before select,
    /// so each transition reaches both at the first of those that
    /// follows it.
    pub(super) fn drain_woken(&mut self) {
        while let Some(p) = self.rf.pop_woken() {
            let reg = p.0 as usize;
            self.iq.wake(reg);
            if self.rf.is_propagated(p) {
                self.mem_sets.capture.wake(reg);
            }
        }
    }

    /// Abandons load `li`'s doppelganger (see
    /// [`DoppelgangerState::discard`]); it can no longer issue.
    pub(super) fn discard_dgl(&mut self, li: usize) {
        self.lq.dgl_mut(li).discard();
        self.mem_sets.dgl.remove(self.lq.handle(li).slot);
    }

    /// Parks the branch at ROB index `i`, if the scheme deferred its
    /// resolution, where its retry will come from: the taint version
    /// when its operands are tainted (STT), else the visibility point
    /// (in-order resolution). A branch that is not deferred is left
    /// alone.
    pub(super) fn park_branch(&mut self, i: usize) {
        if self.rob.state(i) != ExecState::Executed || self.rob.branch(i).is_none_or(|b| b.resolved)
        {
            return;
        }
        let slot = self.rob.handle(i).slot;
        if rules::tracks_taint(self.scheme) && self.taint.any_tainted(self.rob.srcs(i).as_slice()) {
            self.vis.tainted.insert(slot);
        } else {
            self.vis.branches.insert(slot);
        }
    }

    /// Cycle accounting: a scheme rule just parked load `li` for
    /// `cause`. Attribution is sticky (first rule wins) so the load's
    /// later exposed head wait charges to the rule that first delayed
    /// it; episode bookkeeping opens a park interval if none is open.
    /// Never read by simulation.
    pub(super) fn cpi_note_park(&mut self, li: usize, cause: DelayCause) {
        let rule = *self.lq.park_rule_mut(li).get_or_insert(cause);
        if self.lq.park_since(li).is_none() {
            *self.lq.park_since_mut(li) = Some(self.cycle);
            self.cpi.note_park(rule);
        }
    }

    /// Cycle accounting: load `li`'s open park episode (if any) ended —
    /// it issued, was woken at the visibility point, or propagated.
    pub(super) fn cpi_note_unpark(&mut self, li: usize) {
        if let (Some(rule), Some(since)) = (self.lq.park_rule(li), self.lq.park_since(li)) {
            *self.lq.park_since_mut(li) = None;
            self.cpi.note_park_end(rule, since, self.cycle);
        }
    }

    /// Cycle accounting: load `li`'s value just reached dependents.
    /// Closes any open episode and records the park outcome
    /// (doppelganger'd / delayed / woken) under the sticky rule.
    pub(super) fn cpi_note_outcome(&mut self, li: usize, via_doppelganger: bool) {
        self.cpi_note_unpark(li);
        if let Some(rule) = self.lq.park_rule(li) {
            self.cpi.note_outcome(rule, via_doppelganger);
        }
    }

    /// Cycle accounting: a squash is removing LQ entry `li`. Closes its
    /// open episode and, if it never propagated, counts it squashed
    /// under its sticky rule.
    pub(super) fn cpi_note_squashed_load(&mut self, li: usize) {
        if let Some(rule) = self.lq.park_rule(li) {
            if let Some(since) = self.lq.park_since(li) {
                self.cpi.note_park_end(rule, since, self.cycle);
            }
            if !self.lq.propagated(li) {
                self.cpi.note_squashed_park(rule);
            }
        }
    }

    /// Classifies a zero-commit tick: what, exactly, kept the ROB head
    /// (or the empty ROB) from retiring this cycle. Pure observation —
    /// reads pipeline state, mutates nothing.
    pub(super) fn cpi_classify_idle(&self) -> Charge {
        if self.rob.is_empty() {
            // Empty ROB: either refilling after a squash (charged to the
            // squash kind) or the front-end simply has not supplied
            // instructions yet.
            if let Some(c) = self.cpi.refill_component() {
                return Charge::Bucket(c);
            }
            return Charge::Bucket(if self.front.is_redirect_stalled(self.cycle) {
                CpiComponent::FrontendRedirect
            } else if self.front.is_blocked_on_indirect() {
                CpiComponent::FrontendIndirect
            } else {
                CpiComponent::FrontendSupply
            });
        }
        let seq = self.rob.seq(0);
        if self.rob.can_commit(0) {
            // A committable head that did not commit: the only break on
            // that path is a full store buffer.
            return Charge::Bucket(CpiComponent::BackendSbFull);
        }
        if matches!(self.rob.op(0), Op::Load { .. }) {
            // Loads leave the LQ only at commit and a squash truncates
            // both queues at the same point, so a load at the ROB head
            // is the LQ head.
            debug_assert_eq!(self.lq.index_of(seq), Some(0));
            let li = 0;
            // Sticky scheme attribution: once a scheme rule parked
            // this load, its remaining exposed wait is the scheme's
            // cost, even after the park auto-released at the
            // (non-speculative) head.
            if let Some(rule) = self.lq.park_rule(li) {
                return Charge::Bucket(CpiComponent::Scheme(rule));
            }
            return match self.lq.state(li) {
                LoadState::Issued => Charge::PendingMem(seq),
                LoadState::WaitIssue => Charge::Bucket(if self.cpi.mshr_blocked {
                    CpiComponent::BackendMshrFull
                } else {
                    CpiComponent::BackendIssue
                }),
                LoadState::WaitStore(_) => Charge::Bucket(CpiComponent::BackendStoreFwd),
                LoadState::DelayedDoM => Charge::Bucket(CpiComponent::Scheme(DelayCause::DomDelay)),
                // WaitAddr: address generation pending — execution
                // latency. Done: value in hand, propagation /
                // completion latency.
                LoadState::WaitAddr | LoadState::Done => {
                    if self.rob.locked(0) {
                        Charge::Bucket(CpiComponent::Scheme(
                            rules::propagate_delay_cause(self.scheme)
                                .unwrap_or(DelayCause::PropagateLock),
                        ))
                    } else {
                        Charge::Bucket(CpiComponent::BackendExec)
                    }
                }
            };
        }
        if matches!(self.rob.op(0), Op::Store { .. }) {
            // Not committable (address or data still pending).
            return Charge::Bucket(CpiComponent::BackendStore);
        }
        if self.rob.locked(0) {
            // NDA-S: a non-load result locked at writeback.
            return Charge::Bucket(CpiComponent::Scheme(DelayCause::ResultLock));
        }
        if self.rob.state(0) == ExecState::Executed
            && self.rob.branch(0).is_some_and(|b| !b.resolved)
        {
            // Executed-but-unresolved branch at the head: resolution is
            // being held by the scheme (in-order resolution or tainted
            // operands), not by execution latency.
            if rules::tracks_taint(self.scheme)
                && self.taint.any_tainted(self.rob.srcs(0).as_slice())
            {
                return Charge::Bucket(CpiComponent::Scheme(DelayCause::TaintOperand));
            }
            // The branch-order tag follows the scheme, not the AP
            // setting: a DoM head branch is charged here either way.
            if rules::resolves_branches_in_order(self.scheme, true) {
                return Charge::Bucket(CpiComponent::Scheme(DelayCause::BranchOrder));
            }
        }
        Charge::Bucket(CpiComponent::BackendExec)
    }

    /// Recounts the memory stage's load candidate sets from the LQ. The
    /// `WaitIssue` set is exact; the doppelganger set holds every live
    /// load whose doppelganger can still issue (the memory stage
    /// re-checks the rest of the issue condition). Store capture has
    /// its own check. Debug builds run this each tick.
    #[cfg(debug_assertions)]
    fn assert_mem_sets_consistent(&self) {
        let sets = &self.mem_sets;
        let (lq_head, lq_len) = (self.lq.head_slot(), self.lq.len());
        sets.wait_issue.assert_live(lq_head, lq_len, "wait-issue");
        sets.dgl
            .assert_live(lq_head, lq_len, "doppelganger-candidate");
        for li in 0..lq_len {
            let (seq, slot) = (self.lq.seq(li), self.lq.handle(li).slot);
            assert_eq!(
                sets.wait_issue.contains(slot),
                self.lq.state(li) == LoadState::WaitIssue,
                "wait-issue set disagrees with load seq {seq} in {:?}",
                self.lq.state(li)
            );
            let dgl = self.lq.dgl(li);
            let can_issue = dgl.is_predicted()
                && !dgl.is_issued()
                && dgl.verification() != Verification::Mispredicted;
            assert!(
                !can_issue || sets.dgl.contains(slot),
                "lost doppelganger candidate: load seq {seq}"
            );
        }
    }

    /// Checks store capture against the SQ from scratch: every store
    /// with a resolved address and no data is in exactly one place,
    /// nothing else is in either. A due store's data register has
    /// propagated; a waiting store is linked on its own data register,
    /// which is still unpropagated unless that transition is still on
    /// the wake list. Debug builds run this each tick.
    #[cfg(debug_assertions)]
    fn assert_capture_consistent(&self) {
        let capture = &self.mem_sets.capture;
        let (head, len) = (self.sq.head_slot(), self.sq.len());
        capture.due.assert_live(head, len, "capture-due");
        let mask = self.sq.slots() - 1;
        let mut places = vec![0u8; mask + 1];
        for (reg, slot) in capture.links() {
            let si = slot.wrapping_sub(head) & mask;
            assert!(si < len, "dead SQ slot {slot} waits on p{reg}");
            let (seq, src) = (self.sq.seq(si), self.sq.data_src(si));
            assert_eq!(
                src.0 as usize, reg,
                "store seq {seq} waits on p{reg}, not its data register p{}",
                src.0
            );
            assert!(
                !self.rf.is_propagated(src) || self.rf.woken().contains(&src),
                "lost wake-up: store seq {seq} waits on propagated p{reg}"
            );
            places[slot] += 1;
        }
        for si in 0..len {
            let (slot, seq) = (self.sq.handle(si).slot, self.sq.seq(si));
            if capture.due.contains(slot) {
                assert!(
                    self.rf.is_propagated(self.sq.data_src(si)),
                    "store seq {seq} due before its data register propagated"
                );
                places[slot] += 1;
            }
            let pending = self.sq.addr(si).is_some() && self.sq.data(si).is_none();
            assert_eq!(
                places[slot],
                u8::from(pending),
                "store seq {seq} (pending capture: {pending}) in {} places",
                places[slot]
            );
        }
    }

    /// Checks the issue queue against the ROB from scratch: the count,
    /// that every waiting entry sits in exactly one place, and that no
    /// wake-up is lost. An entry linked on register `p` must still be
    /// blocked by `p` unless `p`'s transition is still on the wake
    /// list; a taint-list store must still be gated unless the taint
    /// version moved. Debug builds run this each tick.
    #[cfg(debug_assertions)]
    fn assert_iq_consistent(&self) {
        let mask = self.rob.slots() - 1;
        let head = if self.rob.is_empty() {
            0
        } else {
            self.rob.handle(0).slot
        };
        // The logical ROB index in `slot`, if that entry waits in the IQ.
        let waiting = |slot: usize| {
            let i = slot.wrapping_sub(head) & mask;
            (i < self.rob.len() && self.rob.in_iq(i)).then_some(i)
        };
        let mut places = vec![0u8; mask + 1];
        for slot in (0..=mask).filter(|&s| self.iq.is_ready(s)) {
            assert!(waiting(slot).is_some(), "ready bit on dead slot {slot}");
            places[slot] += 1;
        }
        for (list, slot) in self.iq.links() {
            let i = waiting(slot).unwrap_or_else(|| panic!("dead slot {slot} on list {list}"));
            places[slot] += 1;
            let seq = self.rob.seq(i);
            if list == self.cfg.phys_regs {
                assert!(
                    self.taint.version() != self.iq_taint_seen
                        || (self.issue_blocker(i).is_none() && self.taint_gated(i)),
                    "lost wake-up: seq {seq} on the taint list is no longer gated"
                );
            } else {
                let p = PhysReg(list as u16);
                assert!(
                    self.issue_blocker(i) == Some(p) || self.rf.woken().contains(&p),
                    "lost wake-up: seq {seq} waits on p{list}, which no longer blocks it"
                );
            }
        }
        let waiting_entries: Vec<_> = (0..self.rob.len()).filter(|&i| self.rob.in_iq(i)).collect();
        assert_eq!(waiting_entries.len(), self.iq.len(), "IQ count");
        for i in waiting_entries {
            assert_eq!(
                places[(head + i) & mask],
                1,
                "seq {} not in one place",
                self.rob.seq(i)
            );
        }
    }

    /// Checks the visibility wake-up sets against the queues from
    /// scratch. Every bit names a live entry, and the waiter row of a
    /// free SQ slot is empty. No wake-up is lost: each LQ entry, locked
    /// result or deferred branch on which the sweep would act, now or
    /// once the visibility point passes it, is queued where that change
    /// comes from. Debug builds run this each tick.
    #[cfg(debug_assertions)]
    fn assert_vis_consistent(&self) {
        let (lq_head, lq_len) = (self.lq.head_slot(), self.lq.len());
        self.vis.loads.assert_live(lq_head, lq_len, "parked-load");
        self.vis.due.assert_live(lq_head, lq_len, "due-load");
        let (rob_head, rob_len) = (self.rob.head_slot(), self.rob.len());
        self.vis
            .results
            .assert_live(rob_head, rob_len, "locked-result");
        self.vis.branches.assert_live(rob_head, rob_len, "branch");
        self.vis
            .tainted
            .assert_live(rob_head, rob_len, "tainted-branch");
        assert!(self.vis.due_branches.is_empty(), "due branches left over");
        let sq_mask = self.sq.slots() - 1;
        for slot in 0..=sq_mask {
            if slot.wrapping_sub(self.sq.head_slot()) & sq_mask >= self.sq.len() {
                assert!(
                    self.vis.store_row_is_empty(slot),
                    "waiters on free SQ slot {slot}"
                );
            }
        }
        // Parked work at or below the visibility point is released by
        // the next sweep only if a caster left since its set's last
        // release.
        let epoch = self.shadows.epoch();
        for li in 0..lq_len {
            let (seq, slot) = (self.lq.seq(li), self.lq.handle(li).slot);
            let nonspec = self.shadows.is_nonspeculative(seq);
            let due = self.vis.due.contains(slot);
            let parked = self.vis.loads.contains(slot);
            let released = parked && nonspec && self.vis.loads_epoch != epoch;
            match self.lq.state(li) {
                LoadState::Done if !self.lq.propagated(li) => {
                    assert!(
                        !self.propagate_would_act(li, true) || due || parked,
                        "lost wake-up: locked load seq {seq} is not parked"
                    );
                    assert!(
                        !self.propagate_would_act(li, nonspec) || due || released,
                        "lost wake-up: load seq {seq} can propagate but is not due"
                    );
                }
                LoadState::DelayedDoM => {
                    assert!(
                        if nonspec { due || released } else { parked },
                        "lost wake-up: DoM-delayed load seq {seq} is not queued"
                    );
                }
                LoadState::WaitStore(store) => {
                    let addr = self.lq.addr(li).expect("WaitStore implies addr");
                    let verdict = self.search_forward(seq, addr, self.lq.width(li));
                    let linked = self
                        .sq
                        .index_of(store)
                        .is_some_and(|si| self.vis.waits_on_store(self.sq.handle(si).slot, slot));
                    assert!(
                        due || (linked && verdict == ForwardResult::Partial { store_seq: store }),
                        "lost wake-up: load seq {seq} waiting on store {store} sees {verdict:?}"
                    );
                }
                _ => {}
            }
        }
        let taint_moved = self.taint.version() != self.vis.taint_seen;
        for i in 0..rob_len {
            let (seq, slot) = (self.rob.seq(i), self.rob.handle(i).slot);
            let nonspec = self.shadows.is_nonspeculative(seq);
            if self.rob.locked(i) && !self.rob.op(i).is_load() {
                let parked = self.vis.results.contains(slot);
                assert!(
                    parked && (!nonspec || self.vis.results_epoch != epoch),
                    "lost wake-up: locked result seq {seq} is not queued"
                );
            }
            let deferred = self.rob.state(i) == ExecState::Executed
                && self.rob.branch(i).is_some_and(|b| !b.resolved);
            if !deferred {
                continue;
            }
            let tainted = self.vis.tainted.contains(slot);
            if rules::tracks_taint(self.scheme)
                && self.taint.any_tainted(self.rob.srcs(i).as_slice())
            {
                assert!(
                    tainted,
                    "lost wake-up: tainted branch seq {seq} is not parked"
                );
            } else {
                // Not tainted: it acts now, or once it is the oldest
                // caster (in-order resolution).
                let in_order =
                    rules::resolves_branches_in_order(self.scheme, self.address_prediction());
                let parked = self.vis.branches.contains(slot);
                let released = nonspec && self.vis.branches_epoch != epoch;
                assert!(
                    (tainted && taint_moved) || (parked && (released || (in_order && !nonspec))),
                    "lost wake-up: deferred branch seq {seq} is not queued"
                );
            }
        }
    }

    /// Whether [`try_propagate_load`](Self::try_propagate_load) would
    /// change any state for load `li` if its speculation status were
    /// `nonspec` (the consistency check's model of it).
    #[cfg(debug_assertions)]
    fn propagate_would_act(&self, li: usize, nonspec: bool) -> bool {
        let Some(value) = self.lq.value(li) else {
            return false;
        };
        if self.lq.propagated(li) || self.lq.state(li) != LoadState::Done {
            return false;
        }
        let Some(idx) = self.rob_index(self.lq.seq(li)) else {
            return false;
        };
        let dgl = self.lq.dgl(li);
        let via_dgl =
            dgl.is_predicted() && dgl.verification() == Verification::Correct && dgl.data_ready();
        let allowed = if via_dgl {
            rules::may_propagate(self.scheme, &dgl, nonspec)
        } else {
            rules::may_propagate_load(self.scheme, nonspec)
        };
        let Some((_, preg, _)) = self.rob.dst(idx) else {
            return true;
        };
        let rewrites = preg != crate::regfile::PHYS_ZERO
            && (!self.rf.is_ready(preg) || self.rf.read(preg) != value);
        self.lq.vp(li).is_some()
            || allowed
            || (via_dgl && dgl.invalidation_applies())
            || !self.rob.locked(idx)
            || rewrites
    }

    /// Maps a program instruction index to the byte-address-like key
    /// the core's predictors are trained and queried with. Functional
    /// warming must use the same mapping or its training would land on
    /// different table entries than the detailed core's.
    pub fn pc_addr(pc: usize) -> u64 {
        (pc as u64) << 2
    }

    /// Single funnel for trace emission: with tracing off this is one
    /// never-taken branch, so instrumented paths cost nothing.
    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(s) = self.sink.as_deref_mut() {
            s.emit(&ev);
        }
    }

    #[inline]
    fn emit_stage(&mut self, seq: Seq, pc: usize, kind: InstKind, stage: Stage, cycle: u64) {
        if self.sink.is_some() {
            self.emit(TraceEvent::Stage {
                seq,
                pc: Self::pc_addr(pc),
                kind,
                stage,
                cycle,
            });
        }
    }

    /// The only writer of a doppelganger lifecycle fact: traces `event`
    /// when a sink is installed, then folds it into the matching
    /// [`CoreStats`] counter and [`LoadSiteTable`] column, so the trace,
    /// the aggregates and the per-PC table agree by construction.
    ///
    /// `Squashed` counts as a squash discard only while the doppelganger
    /// is live: one already discarded at verification was counted there.
    /// Call it for a squash before the entry leaves the LQ.
    fn note_dgl(&mut self, seq: Seq, pc: usize, event: DglEvent) {
        if self.sink.is_some() {
            self.emit(TraceEvent::Dgl {
                seq,
                pc: Self::pc_addr(pc),
                cycle: self.cycle,
                event,
            });
        }
        let counter = match event {
            DglEvent::Issued { .. } => &mut self.stats.dgl_issued,
            DglEvent::Propagated { .. } => &mut self.stats.dgl_propagated,
            DglEvent::Discarded {
                reason: DiscardReason::AddressMismatch,
            } => &mut self.stats.dgl_discard_mispredict,
            DglEvent::Discarded { .. } => &mut self.stats.dgl_discard_unsafe,
            DglEvent::Squashed => {
                let li = self.lq_index(seq).expect("squashed load still in the LQ");
                if self.lq.dgl(li).verification() == Verification::Mispredicted {
                    return;
                }
                &mut self.stats.dgl_discard_squash
            }
            DglEvent::Predicted { .. } | DglEvent::Verified { .. } | DglEvent::Deferred => return,
        };
        *counter += 1;
        self.sites.record(Self::pc_addr(pc), &event);
    }
}

mod commit;
mod dispatch;
mod execute;
mod fetch_decode;
mod issue;
mod memory;
mod recovery;
mod writeback;

use memory::ReqOwners;

#[cfg(test)]
mod tests;

/// [`dgl_trace`] classification of an opcode (trace display only).
fn inst_kind(op: Op) -> InstKind {
    match op {
        Op::Load { .. } => InstKind::Load,
        Op::Store { .. } => InstKind::Store,
        Op::Branch { .. } => InstKind::Branch,
        Op::Jump { .. } | Op::JumpReg { .. } | Op::Call { .. } | Op::Ret => InstKind::Jump,
        Op::Halt => InstKind::Halt,
        Op::Nop => InstKind::Nop,
        Op::Imm { .. } | Op::Alu { .. } => InstKind::Alu,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForwardResult {
    None,
    Covers { value: i64, store_seq: Seq },
    Partial { store_seq: Seq },
}
