//! Cycle-loss accounting: exact CPI stacks with per-scheme delay
//! provenance.
//!
//! Every simulated cycle is attributed, at the commit stage, to exactly
//! one cause in a fixed taxonomy — no "other" bucket. The invariant the
//! `cpi_exact` integration test pins is
//!
//! ```text
//! Σ components == total simulated cycles
//! ```
//!
//! for every (workload, config), with or without the skip-ahead kernel.
//!
//! The taxonomy follows the classic top-down decomposition, restricted
//! to what this model actually simulates:
//!
//! * `commit` — cycles in which at least one instruction retired;
//! * `frontend.*` — empty ROB with no squash refill in progress:
//!   redirect penalty, an unpredictable indirect blocking fetch, or
//!   plain fetch-latency supply;
//! * `bad_spec.*` — empty ROB while refilling after a squash, split by
//!   squash kind (branch/RAS, memory-order violation, value
//!   misprediction);
//! * `mem.*` — head load waiting on its demand access, charged to the
//!   level that ultimately served it (`mem.inflight` when the window
//!   closed before the response arrived);
//! * `backend.*` — structural/backend stalls at the head (MSHRs full,
//!   store buffer full, store not yet executed, load not yet issued,
//!   store-forward wait, plain execution latency);
//! * `scheme.<rule>` — the head instruction is held by a restrictive
//!   [`dgl_core::rules`] verdict, charged to the [`DelayCause`] that
//!   names it.
//!
//! Scheme attribution is *sticky*: once a scheme rule parks a load, the
//! load's remaining exposed head wait — including the memory latency the
//! park pushed into the non-speculative window — is charged to that
//! rule. Without stickiness every visibility-released park would
//! dissolve into `mem.*` the moment the load reached the ROB head (the
//! head is non-speculative, so parks auto-release there) and schemes
//! would appear free.
//!
//! Accounting is part of every core and write-only with respect to
//! simulation: nothing simulated ever reads it back. The committed
//! `dgl pin` table and the golden-model tests hold simulated behaviour
//! fixed, and `Core::take_report` debug-asserts the exactness invariant
//! on every run.

use crate::shadow::Seq;
use dgl_core::DelayCause;
use dgl_mem::Level;
use dgl_stats::{Json, MetricsRegistry};

/// Schema identifier stamped into the manifest `cpi` section.
pub const CPI_SCHEMA: &str = "dgl-cpi";

/// Current `cpi` section version.
pub const CPI_VERSION: u64 = 1;

/// Number of scheme-rule components (one per [`DelayCause`]).
const RULES: usize = DelayCause::ALL.len();

/// One cause in the fixed cycle-loss taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpiComponent {
    /// At least one instruction committed this cycle.
    Commit,
    /// Empty ROB: fetch stalled by a redirect penalty.
    FrontendRedirect,
    /// Empty ROB: fetch blocked on an unpredictable indirect jump.
    FrontendIndirect,
    /// Empty ROB: plain fetch/decode supply latency.
    FrontendSupply,
    /// Refilling the ROB after a branch/RAS squash.
    BadSpecBranch,
    /// Refilling the ROB after a memory-order-violation squash.
    BadSpecMemOrder,
    /// Refilling the ROB after a value-misprediction squash.
    BadSpecValue,
    /// Head load waited on a demand access served by the L1.
    MemL1,
    /// Head load waited on a demand access served by the L2.
    MemL2,
    /// Head load waited on a demand access served by the L3.
    MemL3,
    /// Head load waited on a demand access served by DRAM.
    MemDram,
    /// Head-load memory wait whose response the measurement window
    /// never observed (run or window ended mid-flight).
    MemInflight,
    /// Head load ready to issue but the MSHRs were full.
    BackendMshrFull,
    /// Head store completed but the store buffer was full.
    BackendSbFull,
    /// Head store not yet executed (address/data pending).
    BackendStore,
    /// Head load awaiting its turn at the memory port.
    BackendIssue,
    /// Head load waiting on an older store's pending data to forward.
    BackendStoreFwd,
    /// Head instruction still executing (covers everything the finer
    /// buckets don't — it is a real cause, not a fudge bucket: the head
    /// has issued and its result latency simply has not elapsed).
    BackendExec,
    /// Head held by the named [`dgl_core::rules`] verdict.
    Scheme(DelayCause),
}

/// Number of fixed (non-scheme) components.
const FIXED: usize = 18;

/// Total number of taxonomy components.
pub const COMPONENTS: usize = FIXED + RULES;

impl CpiComponent {
    /// Every component, in stable report order.
    pub const ALL: [CpiComponent; COMPONENTS] = [
        CpiComponent::Commit,
        CpiComponent::FrontendRedirect,
        CpiComponent::FrontendIndirect,
        CpiComponent::FrontendSupply,
        CpiComponent::BadSpecBranch,
        CpiComponent::BadSpecMemOrder,
        CpiComponent::BadSpecValue,
        CpiComponent::MemL1,
        CpiComponent::MemL2,
        CpiComponent::MemL3,
        CpiComponent::MemDram,
        CpiComponent::MemInflight,
        CpiComponent::BackendMshrFull,
        CpiComponent::BackendSbFull,
        CpiComponent::BackendStore,
        CpiComponent::BackendIssue,
        CpiComponent::BackendStoreFwd,
        CpiComponent::BackendExec,
        CpiComponent::Scheme(DelayCause::TaintOperand),
        CpiComponent::Scheme(DelayCause::DomDelay),
        CpiComponent::Scheme(DelayCause::PropagateLock),
        CpiComponent::Scheme(DelayCause::ResultLock),
        CpiComponent::Scheme(DelayCause::ReissueHold),
        CpiComponent::Scheme(DelayCause::BranchOrder),
    ];

    /// Dense index into per-component arrays.
    pub fn index(self) -> usize {
        match self {
            CpiComponent::Commit => 0,
            CpiComponent::FrontendRedirect => 1,
            CpiComponent::FrontendIndirect => 2,
            CpiComponent::FrontendSupply => 3,
            CpiComponent::BadSpecBranch => 4,
            CpiComponent::BadSpecMemOrder => 5,
            CpiComponent::BadSpecValue => 6,
            CpiComponent::MemL1 => 7,
            CpiComponent::MemL2 => 8,
            CpiComponent::MemL3 => 9,
            CpiComponent::MemDram => 10,
            CpiComponent::MemInflight => 11,
            CpiComponent::BackendMshrFull => 12,
            CpiComponent::BackendSbFull => 13,
            CpiComponent::BackendStore => 14,
            CpiComponent::BackendIssue => 15,
            CpiComponent::BackendStoreFwd => 16,
            CpiComponent::BackendExec => 17,
            CpiComponent::Scheme(cause) => FIXED + cause.index(),
        }
    }

    /// Stable dotted name used in metrics, manifests, and charts.
    pub fn name(self) -> &'static str {
        match self {
            CpiComponent::Commit => "commit",
            CpiComponent::FrontendRedirect => "frontend.redirect",
            CpiComponent::FrontendIndirect => "frontend.indirect",
            CpiComponent::FrontendSupply => "frontend.supply",
            CpiComponent::BadSpecBranch => "bad_spec.branch",
            CpiComponent::BadSpecMemOrder => "bad_spec.mem_order",
            CpiComponent::BadSpecValue => "bad_spec.value",
            CpiComponent::MemL1 => "mem.l1",
            CpiComponent::MemL2 => "mem.l2",
            CpiComponent::MemL3 => "mem.l3",
            CpiComponent::MemDram => "mem.dram",
            CpiComponent::MemInflight => "mem.inflight",
            CpiComponent::BackendMshrFull => "backend.mshr_full",
            CpiComponent::BackendSbFull => "backend.sb_full",
            CpiComponent::BackendStore => "backend.store",
            CpiComponent::BackendIssue => "backend.issue",
            CpiComponent::BackendStoreFwd => "backend.store_fwd",
            CpiComponent::BackendExec => "backend.exec",
            CpiComponent::Scheme(DelayCause::TaintOperand) => "scheme.taint_operand",
            CpiComponent::Scheme(DelayCause::DomDelay) => "scheme.dom_delay",
            CpiComponent::Scheme(DelayCause::PropagateLock) => "scheme.propagate_lock",
            CpiComponent::Scheme(DelayCause::ResultLock) => "scheme.result_lock",
            CpiComponent::Scheme(DelayCause::ReissueHold) => "scheme.reissue_hold",
            CpiComponent::Scheme(DelayCause::BranchOrder) => "scheme.branch_order",
        }
    }

    /// The component that cycles lost to a given hierarchy level charge
    /// to.
    pub fn from_level(level: Level) -> CpiComponent {
        match level {
            Level::L1 => CpiComponent::MemL1,
            Level::L2 => CpiComponent::MemL2,
            Level::L3 => CpiComponent::MemL3,
            Level::Mem => CpiComponent::MemDram,
        }
    }
}

/// Which squash funnel a recovery came from; refill cycles after the
/// squash charge to the matching `bad_spec.*` component, and the
/// squash counts in the matching [`CoreStats`](crate::CoreStats)
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashKind {
    /// Branch/RAS misprediction (including indirect-jump redirects).
    Branch,
    /// Memory-order violation (store hit a younger completed load, or a
    /// snooped invalidation forced replay).
    MemOrder,
    /// Value misprediction (DoM+VP comparison mode).
    Value,
}

impl SquashKind {
    fn component(self) -> CpiComponent {
        match self {
            SquashKind::Branch => CpiComponent::BadSpecBranch,
            SquashKind::MemOrder => CpiComponent::BadSpecMemOrder,
            SquashKind::Value => CpiComponent::BadSpecValue,
        }
    }
}

/// Per-rule delay provenance: how often a scheme rule parked loads, for
/// how long, and how those parks resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleProvenance {
    /// Exposed head-of-ROB cycles charged to this rule.
    pub cycles: u64,
    /// Park episodes this rule opened.
    pub parks: u64,
    /// Summed park-episode durations (clamped to the measurement
    /// window; overlapping episodes on one load count once).
    pub park_cycles: u64,
    /// Parked loads that ultimately propagated conventionally after an
    /// issue-side park (the rule really delayed them).
    pub delayed: u64,
    /// Parked loads whose doppelganger propagated (the preload covered
    /// the park).
    pub doppelgangered: u64,
    /// Propagate-side parks released at the visibility point with the
    /// data already in hand.
    pub woken: u64,
    /// Parked loads removed by a squash before propagating.
    pub squashed: u64,
}

/// A finished cycle-loss stack: per-component cycles plus per-rule
/// provenance. This is the value a [`RunReport`](crate::RunReport)
/// carries; the runtime state lives in [`CpiAccount`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpiStack {
    components: [u64; COMPONENTS],
    rules: [RuleProvenance; RULES],
    total: u64,
}

impl Default for CpiStack {
    fn default() -> Self {
        Self::new()
    }
}

impl CpiStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self {
            components: [0; COMPONENTS],
            rules: [RuleProvenance::default(); RULES],
            total: 0,
        }
    }

    /// Cycles charged to one component.
    pub fn get(&self, c: CpiComponent) -> u64 {
        self.components[c.index()]
    }

    /// Total cycles charged (must equal the run's simulated cycles —
    /// the exactness invariant).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The independently recomputed component sum (the exactness test
    /// checks `sum() == total() == stats.cycles`).
    pub fn sum(&self) -> u64 {
        self.components.iter().sum()
    }

    /// Provenance for one scheme rule.
    pub fn rule(&self, cause: DelayCause) -> &RuleProvenance {
        &self.rules[cause.index()]
    }

    /// Iterates `(component, cycles)` in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (CpiComponent, u64)> + '_ {
        CpiComponent::ALL.iter().map(|&c| (c, self.get(c)))
    }

    fn charge(&mut self, c: CpiComponent, cycles: u64) {
        self.components[c.index()] += cycles;
        self.total += cycles;
        if let CpiComponent::Scheme(cause) = c {
            self.rules[cause.index()].cycles += cycles;
        }
    }

    fn rule_mut(&mut self, cause: DelayCause) -> &mut RuleProvenance {
        &mut self.rules[cause.index()]
    }

    /// Publishes the stack into a metrics registry under `cpi.*` names:
    /// one counter per component plus `cpi.rule.<rule>.<field>`
    /// provenance counters. One-way copy, like
    /// [`CoreStats::publish`](crate::CoreStats::publish).
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        reg.counter("cpi.cycles", self.total);
        for (c, v) in self.iter() {
            reg.counter(&format!("cpi.{}", c.name()), v);
        }
        for cause in DelayCause::ALL {
            let r = self.rule(cause);
            let base = format!("cpi.rule.{}", cause.label());
            reg.counter(&format!("{base}.cycles"), r.cycles);
            reg.counter(&format!("{base}.parks"), r.parks);
            reg.counter(&format!("{base}.park_cycles"), r.park_cycles);
            reg.counter(&format!("{base}.delayed"), r.delayed);
            reg.counter(&format!("{base}.doppelgangered"), r.doppelgangered);
            reg.counter(&format!("{base}.woken"), r.woken);
            reg.counter(&format!("{base}.squashed"), r.squashed);
        }
    }

    /// The versioned manifest `cpi` section. Components are emitted in
    /// taxonomy order (deterministic byte-for-byte), with the claimed
    /// total alongside so consumers can re-check exactness.
    pub fn to_json(&self) -> Json {
        let mut components = Json::object();
        for (c, v) in self.iter() {
            components = components.field(c.name(), Json::uint(v));
        }
        let mut rules = Json::object();
        for cause in DelayCause::ALL {
            let r = self.rule(cause);
            rules = rules.field(
                cause.label(),
                Json::object()
                    .field("cycles", Json::uint(r.cycles))
                    .field("parks", Json::uint(r.parks))
                    .field("park_cycles", Json::uint(r.park_cycles))
                    .field("delayed", Json::uint(r.delayed))
                    .field("doppelgangered", Json::uint(r.doppelgangered))
                    .field("woken", Json::uint(r.woken))
                    .field("squashed", Json::uint(r.squashed)),
            );
        }
        Json::object()
            .field("schema", Json::str(CPI_SCHEMA))
            .field("version", Json::uint(CPI_VERSION))
            .field("cycles", Json::uint(self.total))
            .field("components", components)
            .field("scheme_rules", rules)
    }
}

/// Where the current tick's cycle went: a taxonomy bucket, or the
/// pending memory-wait cell (resolved to a `mem.*` level later).
#[derive(Debug, Clone, Copy)]
pub enum Charge {
    /// Charged directly to a component.
    Bucket(CpiComponent),
    /// Accumulating against the head load's in-flight demand access.
    PendingMem(Seq),
}

/// Runtime accounting state owned by every core (write-only with
/// respect to simulation).
#[derive(Debug)]
pub struct CpiAccount {
    stack: CpiStack,
    /// Head-load memory-wait cycles awaiting their response's
    /// `hit_level`.
    pending: Option<(Seq, u64)>,
    /// The most recent per-tick charge target, replayed across elided
    /// idle gaps (gap state is frozen, so the classification holds for
    /// every elided cycle).
    last: Charge,
    /// Squash kind responsible for the current ROB refill, if any.
    refill: Option<SquashKind>,
    /// Set by the demand-issue loop when the MSHRs refused a request
    /// this tick; read (and reset) by commit-time classification.
    pub mshr_blocked: bool,
    /// Measurement-epoch base cycle; park durations clamp here so a
    /// park spanning the warmup/measure boundary only counts its
    /// measured part.
    epoch: u64,
}

impl CpiAccount {
    /// Fresh accounting state.
    pub fn new() -> Self {
        Self {
            stack: CpiStack::new(),
            pending: None,
            last: Charge::Bucket(CpiComponent::Commit),
            refill: None,
            mshr_blocked: false,
            epoch: 0,
        }
    }

    /// The accumulated stack (pending cycles not yet flushed are *not*
    /// included — call [`Self::flush_inflight`] at a boundary first).
    pub fn stack(&self) -> &CpiStack {
        &self.stack
    }

    /// Measurement-epoch base cycle.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Charges this tick's single cycle to `target` and remembers it
    /// for gap replay.
    pub fn charge_tick(&mut self, target: Charge) {
        self.charge_span(target, 1);
        self.last = target;
    }

    /// Charges an elided idle gap of `span` cycles to the last tick's
    /// target (valid because nothing can change inside the gap).
    pub fn charge_gap(&mut self, span: u64) {
        self.charge_span(self.last, span);
    }

    fn charge_span(&mut self, target: Charge, span: u64) {
        match target {
            Charge::Bucket(c) => self.stack.charge(c, span),
            Charge::PendingMem(seq) => match &mut self.pending {
                Some((s, cycles)) if *s == seq => *cycles += span,
                Some(_) => {
                    // A different load's wait never saw its response
                    // (forwarded, squashed, or replayed): the window
                    // closed on it mid-flight.
                    self.flush_inflight();
                    self.pending = Some((seq, span));
                }
                None => self.pending = Some((seq, span)),
            },
        }
    }

    /// A demand response arrived for `seq`, served at `level`: flush
    /// the matching pending wait to the level's component.
    pub fn resolve_mem(&mut self, seq: Seq, level: Level) {
        if let Some((s, cycles)) = self.pending {
            if s == seq {
                self.pending = None;
                self.stack.charge(CpiComponent::from_level(level), cycles);
            }
        }
    }

    /// Flushes any pending memory wait to `mem.inflight` (measurement
    /// boundary, or the waiting load completed without a level-tagged
    /// response).
    pub fn flush_inflight(&mut self) {
        if let Some((_, cycles)) = self.pending.take() {
            self.stack.charge(CpiComponent::MemInflight, cycles);
        }
    }

    /// Records the squash kind driving the upcoming ROB refill.
    pub fn note_squash(&mut self, kind: SquashKind) {
        self.refill = Some(kind);
    }

    /// Dispatch pushed a post-squash instruction: the refill gap is
    /// over.
    pub fn note_dispatch(&mut self) {
        self.refill = None;
    }

    /// The `bad_spec.*` component for the refill in progress, if any.
    pub fn refill_component(&self) -> Option<CpiComponent> {
        self.refill.map(SquashKind::component)
    }

    /// Opens a park episode for `cause` (counts the episode; the caller
    /// stamps the LQ entry).
    pub fn note_park(&mut self, cause: DelayCause) {
        self.stack.rule_mut(cause).parks += 1;
    }

    /// Closes a park episode: `since` is the episode's start cycle
    /// (clamped to the epoch), `now` the release cycle.
    pub fn note_park_end(&mut self, cause: DelayCause, since: u64, now: u64) {
        let from = since.max(self.epoch);
        self.stack.rule_mut(cause).park_cycles += now.saturating_sub(from);
    }

    /// Records how a parked load's value finally reached dependents.
    pub fn note_outcome(&mut self, cause: DelayCause, via_doppelganger: bool) {
        let r = self.stack.rule_mut(cause);
        if via_doppelganger {
            r.doppelgangered += 1;
        } else if cause.is_issue_side() {
            r.delayed += 1;
        } else {
            r.woken += 1;
        }
    }

    /// Records a parked load removed by a squash.
    pub fn note_squashed_park(&mut self, cause: DelayCause) {
        self.stack.rule_mut(cause).squashed += 1;
    }

    /// Resets for a new measurement window: zero the stack, drop any
    /// pending wait (its pre-window cycles were zeroed with the stack),
    /// and re-base park clamping at `now`.
    pub fn reset(&mut self, now: u64) {
        self.stack = CpiStack::new();
        self.pending = None;
        self.epoch = now;
        // `last` and `refill` survive: the machine state they describe
        // does. The next tick re-derives `last` before any gap replay.
    }

    /// Finishes the account at a run boundary: flushes in-flight waits
    /// and returns the completed stack, leaving a fresh one behind.
    pub fn take_stack(&mut self, now: u64) -> CpiStack {
        self.flush_inflight();
        let stack = std::mem::take(&mut self.stack);
        self.epoch = now;
        stack
    }
}

impl Default for CpiAccount {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_indices_are_dense_and_stable() {
        for (i, c) in CpiComponent::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
        let names: std::collections::HashSet<_> =
            CpiComponent::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), COMPONENTS, "names must be unique");
    }

    #[test]
    fn charge_tick_and_gap_sum_exactly() {
        let mut a = CpiAccount::new();
        a.charge_tick(Charge::Bucket(CpiComponent::Commit));
        a.charge_gap(9);
        a.charge_tick(Charge::Bucket(CpiComponent::Scheme(DelayCause::DomDelay)));
        a.charge_gap(4);
        let stack = a.take_stack(15);
        assert_eq!(stack.get(CpiComponent::Commit), 10);
        assert_eq!(stack.get(CpiComponent::Scheme(DelayCause::DomDelay)), 5);
        assert_eq!(stack.rule(DelayCause::DomDelay).cycles, 5);
        assert_eq!(stack.sum(), 15);
        assert_eq!(stack.total(), 15);
    }

    #[test]
    fn pending_mem_resolves_to_the_hit_level() {
        let mut a = CpiAccount::new();
        a.charge_tick(Charge::PendingMem(7));
        a.charge_gap(19);
        a.resolve_mem(7, Level::Mem);
        let stack = a.take_stack(20);
        assert_eq!(stack.get(CpiComponent::MemDram), 20);
        assert_eq!(stack.get(CpiComponent::MemInflight), 0);
        assert_eq!(stack.sum(), 20);
    }

    #[test]
    fn unresolved_pending_flushes_to_inflight() {
        let mut a = CpiAccount::new();
        a.charge_tick(Charge::PendingMem(3));
        a.resolve_mem(99, Level::L1); // wrong seq: no flush
        let stack = a.take_stack(1);
        assert_eq!(stack.get(CpiComponent::MemInflight), 1);
        assert_eq!(stack.sum(), 1);
    }

    #[test]
    fn pending_seq_change_flushes_the_old_wait() {
        let mut a = CpiAccount::new();
        a.charge_tick(Charge::PendingMem(1));
        a.charge_tick(Charge::PendingMem(2));
        a.resolve_mem(2, Level::L2);
        let stack = a.take_stack(2);
        assert_eq!(stack.get(CpiComponent::MemInflight), 1);
        assert_eq!(stack.get(CpiComponent::MemL2), 1);
        assert_eq!(stack.sum(), 2);
    }

    #[test]
    fn reset_drops_pending_and_rebases_epoch() {
        let mut a = CpiAccount::new();
        a.charge_tick(Charge::PendingMem(5));
        a.note_park(DelayCause::DomDelay);
        a.reset(100);
        // A park that began at cycle 40 but released at 130 counts only
        // its measured part.
        a.note_park_end(DelayCause::DomDelay, 40, 130);
        let stack = a.take_stack(130);
        assert_eq!(stack.sum(), 0, "pre-reset charges are gone");
        assert_eq!(stack.rule(DelayCause::DomDelay).park_cycles, 30);
    }

    #[test]
    fn outcomes_split_by_park_side() {
        let mut a = CpiAccount::new();
        a.note_outcome(DelayCause::DomDelay, true);
        a.note_outcome(DelayCause::DomDelay, false);
        a.note_outcome(DelayCause::PropagateLock, false);
        a.note_squashed_park(DelayCause::TaintOperand);
        let stack = a.take_stack(0);
        assert_eq!(stack.rule(DelayCause::DomDelay).doppelgangered, 1);
        assert_eq!(stack.rule(DelayCause::DomDelay).delayed, 1);
        assert_eq!(stack.rule(DelayCause::PropagateLock).woken, 1);
        assert_eq!(stack.rule(DelayCause::TaintOperand).squashed, 1);
    }

    #[test]
    fn publish_and_json_agree_on_totals() {
        let mut a = CpiAccount::new();
        a.charge_tick(Charge::Bucket(CpiComponent::MemDram));
        a.charge_gap(99);
        let stack = a.take_stack(100);
        let mut reg = MetricsRegistry::new();
        stack.publish(&mut reg);
        assert_eq!(reg.counter_value("cpi.cycles"), Some(100));
        assert_eq!(reg.counter_value("cpi.mem.dram"), Some(100));
        assert_eq!(reg.counter_value("cpi.commit"), Some(0));
        let doc = stack.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(CPI_SCHEMA));
        assert_eq!(doc.get("cycles").and_then(Json::as_u64), Some(100));
        let total: u64 = CpiComponent::ALL
            .iter()
            .map(|c| {
                doc.get("components")
                    .and_then(|j| j.get(c.name()))
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 100, "serialized components sum to the total");
        let text = doc.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc, "round-trips");
    }
}
