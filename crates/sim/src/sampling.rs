//! Sampled simulation: fast-forward, warmup, measurement windows.
//!
//! The paper evaluates on SPEC **simpoints** — short detailed windows
//! reached by fast-forwarding — rather than whole-program detailed
//! runs. This module reproduces that methodology for the synthetic
//! suite:
//!
//! 1. **Fast-forward with functional warming**: the golden-model
//!    emulator ([`dgl_isa::Emulator`]) executes functionally to each
//!    window's warmup start and captures an architectural
//!    [`Checkpoint`](dgl_isa::Checkpoint) (registers, memory, PC).
//!    While it runs, its
//!    [`ArchEvent`] stream continuously warms a shadow memory
//!    hierarchy, branch predictor, and stride table through the same
//!    commit-time training APIs the detailed core uses — so each
//!    window inherits the *whole-history* microarchitectural state a
//!    full detailed run would have built, not just what a short
//!    detailed warmup can reconstruct.
//! 2. **Detailed warmup**: a fresh out-of-order core is seeded from
//!    the checkpoint and the warmed structures, then commits a short
//!    slice in full detail to settle pipeline, queue, and MSHR
//!    transients — after which all statistics are discarded.
//! 3. **Measurement**: the next [`SamplingConfig::window_insts`]
//!    commits run in full detail; their statistics become the window's
//!    [`RunReport`] (with [`Provenance::SampledWindow`] recording the
//!    origin).
//! 4. **Stitching**: whole-program IPC is estimated as the ratio of
//!    *integer* sums, Σ measured instructions / Σ measured cycles, so
//!    the estimate is byte-identical regardless of how many worker
//!    threads simulated the (independent) windows.
//!
//! Windows run in parallel on the serve pool's [`par_map`],
//! [`SamplingConfig::threads`] workers at a time; a panicking window
//! poisons only itself and surfaces as [`RunError::Internal`].

use crate::ckptstore::{CheckpointKey, CheckpointStore, ProgramTotals, StoredWindow};
use crate::experiments::panic_message;
use crate::serve::par_map;
use crate::SimBuilder;
use dgl_core::AddressPredictor;
use dgl_isa::{ArchEvent, EmuError, Emulator};
use dgl_mem::MemorySystem;
use dgl_pipeline::{Core, Provenance, RunError, RunReport};
use dgl_predictor::BranchPredictor;
use dgl_workloads::Workload;
use std::sync::Arc;

/// Parameters of the sampling regime.
///
/// The defaults measure 1 000 of every 10 000 instructions after a
/// 2 000-instruction detailed warmup — a 10 % detailed-simulation duty
/// cycle (30 % counting warmup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Distance between successive measurement-window starts, in
    /// retired instructions (the sampling period).
    pub interval_insts: u64,
    /// Detailed-warmup commits before each measurement window. Caches
    /// and predictors arrive already trained by functional warming, so
    /// this slice only needs to settle pipeline, queue, and MSHR
    /// transients; its statistics are discarded.
    pub warmup_insts: u64,
    /// Measured commits per window.
    pub window_insts: u64,
    /// Upper bound on the number of windows.
    pub max_windows: usize,
    /// Worker threads simulating windows (0 = one per available core).
    /// The result is identical for every value.
    pub threads: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            interval_insts: 10_000,
            warmup_insts: 2_000,
            window_insts: 1_000,
            max_windows: 256,
            threads: 0,
        }
    }
}

impl SamplingConfig {
    fn validate(&self) {
        assert!(self.interval_insts > 0, "sampling interval must be > 0");
        assert!(self.window_insts > 0, "measurement window must be > 0");
        assert!(self.max_windows > 0, "need at least one window");
    }
}

/// One simulated measurement window.
#[derive(Debug)]
pub struct WindowReport {
    /// Window index in program order.
    pub index: usize,
    /// Retired-instruction count at which the detailed core took over
    /// (the warmup start).
    pub checkpoint_inst: u64,
    /// The detailed report of the measurement slice (statistics cover
    /// the measured instructions only).
    pub report: RunReport,
}

impl WindowReport {
    /// Simulated kilo-instructions per host second for this window's
    /// measurement slice (host-side observability; never serialized
    /// into manifests).
    pub fn kips(&self) -> f64 {
        self.report.kips()
    }
}

/// The stitched result of a sampled run.
#[derive(Debug)]
pub struct SampledRun {
    /// Per-window measurements, in program order.
    pub windows: Vec<WindowReport>,
    /// Instructions the golden model retired over the whole program.
    pub total_insts: u64,
    /// Whether the golden model reached `halt` within its step budget.
    pub halted: bool,
    /// The sampling parameters used.
    pub config: SamplingConfig,
}

impl SampledRun {
    /// Instructions measured in detail across all windows.
    pub fn measured_insts(&self) -> u64 {
        self.windows.iter().map(|w| w.report.committed).sum()
    }

    /// Cycles spent in measurement slices across all windows.
    pub fn measured_cycles(&self) -> u64 {
        self.windows.iter().map(|w| w.report.cycles).sum()
    }

    /// IPC of the measured slices alone: Σ measured instructions /
    /// Σ measured cycles (a diagnostic; [`ipc`](Self::ipc) is the
    /// whole-program estimate).
    pub fn measured_ipc(&self) -> f64 {
        let cycles = self.measured_cycles();
        if cycles == 0 {
            0.0
        } else {
            self.measured_insts() as f64 / cycles as f64
        }
    }

    /// Estimated whole-program cycle count.
    ///
    /// Each measured slice contributes its exact cycle count; the
    /// fast-forwarded instructions between slices are costed at the
    /// measured cycles-per-instruction of the *following* window (the
    /// window they lead into, whose detailed measurement best reflects
    /// the local behavior), and the tail after the last slice at the
    /// last measured window's CPI. Window 0 measures the true cold
    /// start, so the startup transient enters with its exact cost
    /// rather than being extrapolated over its whole interval.
    ///
    /// All inputs are per-window integers combined in window order, so
    /// the result is byte-identical for every worker-thread count.
    pub fn estimated_cycles(&self) -> f64 {
        let mut est = 0.0f64;
        let mut prev_end = 0u64;
        for win in &self.windows {
            if win.report.committed == 0 {
                // Halted during warmup: its instructions fold into the
                // next gap (or the tail).
                continue;
            }
            let start = match win.report.provenance {
                Provenance::SampledWindow {
                    checkpoint_inst,
                    warmup_committed,
                } => checkpoint_inst + warmup_committed,
                Provenance::Full => 0,
            };
            let cpi = win.report.cycles as f64 / win.report.committed as f64;
            let gap = start.saturating_sub(prev_end);
            est += gap as f64 * cpi + win.report.cycles as f64;
            prev_end = start + win.report.committed;
        }
        let tail = self.total_insts.saturating_sub(prev_end);
        if tail > 0 {
            if let Some(last) = self.windows.iter().rev().find(|w| w.report.committed > 0) {
                est += tail as f64 * last.report.cycles as f64 / last.report.committed as f64;
            }
        }
        est
    }

    /// The stitched whole-program IPC estimate:
    /// `total_insts / estimated_cycles`. Byte-identical for every
    /// worker-thread count (see [`estimated_cycles`](Self::estimated_cycles)).
    pub fn ipc(&self) -> f64 {
        let est = self.estimated_cycles();
        if est == 0.0 {
            0.0
        } else {
            self.total_insts as f64 / est
        }
    }
}

fn emu_error(e: EmuError) -> RunError {
    match e {
        EmuError::BadIndirectTarget { pc, target } => RunError::BadIndirectTarget { pc, target },
        EmuError::RanOffEnd { pc } => RunError::Internal {
            message: format!("golden model ran off program end at pc {pc}"),
        },
    }
}

/// Microarchitectural state trained during functional fast-forward
/// (SMARTS-style functional warming): the cache hierarchy, branch
/// predictor, and stride table as a full run would have left them at
/// a given retired-instruction boundary.
///
/// The warmer consumes the emulator's [`ArchEvent`] stream and feeds
/// it through the *same* training entry points the detailed core uses
/// at commit — [`MemorySystem::warm`],
/// [`AddressPredictor::train_at_commit`] (the only mutation path into
/// the stride table), and [`BranchPredictor::train`] keyed by
/// [`Core::pc_addr`] — so the security invariant (predictors train on
/// committed instructions only) and table indexing are preserved
/// exactly. The warmer's caches write the sets they own in place;
/// [`snapshot`](Self::snapshot) freezes them first, so the stored
/// copy shares every written 16-set chunk (one refcount bump each; see
/// [`dgl_mem::Cache`]) and copies the predictor tables outright. Jump
/// and per-window install clones are taken from frozen snapshots and
/// cost tens of microseconds, and the live warmer and each window's
/// core copy only the chunks they write.
#[derive(Clone)]
pub(crate) struct FunctionalWarmer {
    mem: MemorySystem,
    bpred: BranchPredictor,
    ap: AddressPredictor,
}

impl FunctionalWarmer {
    /// An untrained warmer matching `b`'s core configuration: cold
    /// caches, with the observation-trace wiring a core built by `b`
    /// has. The stride table trains with address prediction off, which
    /// training never reads; `install_into` sets the core's flag.
    fn new(b: &SimBuilder) -> Self {
        let mut mem = MemorySystem::new(b.config.hierarchy);
        mem.set_trace(b.trace);
        Self {
            mem,
            bpred: BranchPredictor::new(b.config.branch),
            ap: AddressPredictor::new(b.config.doppelganger, false),
        }
    }

    /// The warmer a walk from retired 0 starts with: `w`'s declared
    /// hot ranges pre-warmed exactly as
    /// [`SimBuilder::run_workload`] pre-warms a core.
    pub(crate) fn template(b: &SimBuilder, w: &Workload) -> Self {
        let mut warmer = Self::new(b);
        warmer.mem.warm_ranges(&w.warm_ranges);
        warmer
    }

    /// A copy of the warmed state to store, sharing the caches' chunks
    /// with this warmer: freezes them first, so neither side copies a
    /// line until it writes one.
    pub(crate) fn snapshot(&mut self) -> Self {
        self.mem.freeze();
        self.clone()
    }

    /// Applies one retired architectural event, mirroring the order of
    /// the detailed core's commit stage (train, then prefetch).
    pub(crate) fn observe(&mut self, ev: ArchEvent) {
        match ev {
            ArchEvent::Load { pc, addr } => {
                self.mem.warm(addr);
                let pc = Core::pc_addr(pc);
                self.ap.train_at_commit(pc, addr);
                if let Some(cand) = self.ap.prefetch_candidate(pc, addr) {
                    self.mem.warm(cand);
                }
            }
            ArchEvent::Store { addr, .. } => self.mem.warm(addr),
            ArchEvent::Branch { pc, taken, next } => {
                self.bpred.train(Core::pc_addr(pc), taken, Some(next));
            }
        }
    }

    /// Installs the warmed state into a freshly built window core,
    /// handing over the trained stride table under the core's own
    /// address-prediction flag.
    fn install_into(&self, core: &mut Core) {
        core.install_memory_system(self.mem.clone());
        core.install_branch_predictor(self.bpred.clone());
        let ap = self.ap.clone();
        core.install_address_predictor(ap.with_address_prediction(core.address_prediction()));
    }

    /// Appends a canonical flat-word dump of the warmed state — the
    /// quiescent memory hierarchy, branch predictor, and address
    /// predictor — to `out` (checkpoint-store disk tier).
    pub(crate) fn dump_state(&self, out: &mut Vec<u64>) {
        self.mem.dump_warm_state(out);
        self.bpred.dump_state(out);
        self.ap.dump_state(out);
    }

    /// Rebuilds a warmer from a [`dump_state`](Self::dump_state) word
    /// stream for builder `b`, which must carry the configuration the
    /// dump was produced under. Returns `None` on a truncated or
    /// malformed stream — a corrupted serialized checkpoint must
    /// surface as a clean store miss, not a panic.
    pub(crate) fn restore_state(b: &SimBuilder, words: &mut &[u64]) -> Option<Self> {
        // Trace wiring is host-side and never serialized; `new` takes
        // the builder's setting, so a disk-restored warmer installs
        // exactly the state an in-memory one would. Restored caches are
        // frozen, so installs copy nothing.
        let mut warmer = Self::new(b);
        warmer.mem.restore_warm_state(words)?;
        warmer.bpred.restore_state(words)?;
        warmer.ap.restore_state(words)?;
        Some(warmer)
    }
}

/// One window's work order: index, warmup length (window 0 may get a
/// truncated warmup), and the snapshot — checkpoint plus functionally
/// warmed state — the window starts from. The snapshot is shared
/// (`Arc`) between the plan and the checkpoint store, so a store hit
/// costs no state copies at planning time; each window clones state
/// only when it seeds its own core.
struct WindowPlan {
    index: usize,
    warmup_insts: u64,
    window: Arc<StoredWindow>,
}

impl SimBuilder {
    /// Runs `w` in sampled mode: functional fast-forward to each
    /// window, detailed warmup + measurement per window (in parallel),
    /// and a stitched whole-program IPC estimate.
    ///
    /// Each window's core inherits functionally warmed state — caches,
    /// branch predictor, and stride table trained on every instruction
    /// the golden model fast-forwarded through, starting from the
    /// workload's declared `warm_ranges` exactly as
    /// [`SimBuilder::run_workload`] pre-warms them — and then runs its
    /// own short detailed warmup slice to settle pipeline and MSHR
    /// transients.
    ///
    /// # Errors
    ///
    /// Propagates the first window's [`RunError`] (by window order),
    /// or a golden-model fault translated to one.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` is degenerate (zero interval or window).
    pub fn run_sampled(&self, w: &Workload, cfg: &SamplingConfig) -> Result<SampledRun, RunError> {
        self.run_sampled_with_store(w, cfg, None)
    }

    /// [`run_sampled`](Self::run_sampled) backed by a shared
    /// [`CheckpointStore`]: each window's warmup-start checkpoint (and
    /// the functionally warmed state that goes with it) is looked up in
    /// the store before the golden model walks there, and inserted on a
    /// miss. A hit replaces the fast-forward for that window with a
    /// clone of the stored snapshot; because the golden model is
    /// deterministic and stored snapshots are bit-identical clones of
    /// what the miss path would have produced, the returned
    /// [`SampledRun`] — and any manifest built from it — is
    /// byte-identical with or without the store. When the store also
    /// holds the program's totals, planning stops at the last window
    /// the program reaches, so a run whose windows all hit walks the
    /// golden model not at all.
    ///
    /// # Errors
    ///
    /// As [`run_sampled`](Self::run_sampled).
    ///
    /// # Panics
    ///
    /// Panics when `cfg` is degenerate (zero interval or window).
    pub fn run_sampled_with_store(
        &self,
        w: &Workload,
        cfg: &SamplingConfig,
        store: Option<&CheckpointStore>,
    ) -> Result<SampledRun, RunError> {
        cfg.validate();
        // Host-side span: checkpoint planning (store lookups + golden
        // fast-forward + totals) vs. detailed simulation, timed
        // separately so `dgl explain --spans` can attribute wall time.
        let mut plan_span = self.span("ckpt_plan");
        let workload_fp = store.map(|_| crate::manifest::workload_fingerprint(w));
        let warm_fp = store.map(|_| self.warm_fingerprint());
        let key_at = |retired: u64| CheckpointKey {
            workload: workload_fp.unwrap_or(0),
            warm: warm_fp.unwrap_or(0),
            retired,
        };
        // Functional pass: walk the golden model once, capturing a
        // checkpoint where each window's warmup begins.
        let mut emu = Emulator::new(&w.program, w.memory.clone());
        // The functional pass gets the same generous budget the
        // verified-run cross-check uses; a non-halting program stops
        // here rather than spinning forever.
        let step_budget = w.max_cycles.saturating_mul(16).max(1_000_000);
        // The warmer trains continuously on the fast-forwarded
        // instruction stream. It is built lazily: a jump installs a
        // stored snapshot's warmer, so only a walk from retired 0
        // needs the template — the workload's declared hot ranges,
        // pre-warmed exactly as `run_workload` does.
        let mut warmer: Option<FunctionalWarmer> = None;
        let mut plans: Vec<WindowPlan> = Vec::new();
        // On a store hit the golden model is NOT advanced; `cursor`
        // remembers the latest hit snapshot so a later miss (or the
        // totals tail walk) materializes the emulator and warmer from
        // it lazily. A run whose windows all hit therefore copies no
        // state at all during planning.
        let mut cursor: Option<Arc<StoredWindow>> = None;
        // The whole-program totals are a pure function of the program
        // and its step budget, so a store that knows them also knows
        // where planning ends: a window is planned iff its walk reaches
        // `warmup_start` before the program halts or the budget runs
        // out, i.e. iff `warmup_start < total_insts`. Stopping there
        // skips the walk to the end that the first window past it
        // would otherwise take, only to break.
        let totals = store.and_then(|s| s.totals(workload_fp.unwrap_or(0)));
        for index in 0..cfg.max_windows {
            let measure_start = index as u64 * cfg.interval_insts;
            let warmup_start = measure_start.saturating_sub(cfg.warmup_insts);
            if totals.is_some_and(|t| warmup_start >= t.total_insts) {
                break;
            }
            if let Some(s) = store {
                if let Some(entry) = s.get(self, key_at(warmup_start)) {
                    // Store hit: the snapshot was captured at exactly
                    // this boundary (`checkpoint.retired ==
                    // warmup_start`), so the window — and every later
                    // one — proceeds bit-identically to the miss path.
                    cursor = Some(Arc::clone(&entry));
                    plans.push(WindowPlan {
                        index,
                        warmup_insts: measure_start - warmup_start,
                        window: entry,
                    });
                    continue;
                }
                // Miss: jump to the furthest snapshot strictly before
                // this boundary — the last hit (`cursor`) or any
                // resident waypoint past it — before walking the rest.
                // A hit at the live emulator's own position still
                // counts while no warmer exists: it saves the template.
                let jump = cursor
                    .take()
                    .filter(|c| c.retired() > emu.retired() || warmer.is_none());
                let pos = jump.as_ref().map_or(emu.retired(), |c| c.retired());
                let jump = s.nearest_below(key_at(warmup_start), pos).or(jump);
                if let Some(entry) = jump {
                    emu = Emulator::from_checkpoint(&w.program, entry.checkpoint.clone());
                    warmer = Some(entry.warmed.clone());
                }
            }
            let warmer = warmer.get_or_insert_with(|| FunctionalWarmer::template(self, w));
            while emu.retired() < warmup_start && !emu.halted() && emu.retired() < step_budget {
                emu.step_observed(&mut |ev| warmer.observe(ev))
                    .map_err(emu_error)?;
            }
            if emu.halted() || emu.retired() >= step_budget {
                break;
            }
            let window = Arc::new(StoredWindow {
                checkpoint: emu.checkpoint(),
                warmed: warmer.snapshot(),
            });
            if let Some(s) = store {
                s.insert(key_at(warmup_start), Arc::clone(&window));
            }
            plans.push(WindowPlan {
                index,
                warmup_insts: measure_start - warmup_start,
                window,
            });
        }
        // Take the whole-program totals from the store's totals cache,
        // or finish the functional run for them.
        let (total_insts, halted) = match totals {
            Some(t) => (t.total_insts, t.halted),
            None => {
                // Resume the tail walk from the last hit snapshot when
                // it is ahead of the live emulator.
                if let Some(c) = cursor.take().filter(|c| c.retired() > emu.retired()) {
                    emu = Emulator::from_checkpoint(&w.program, c.checkpoint.clone());
                }
                while !emu.halted() && emu.retired() < step_budget {
                    emu.step().map_err(emu_error)?;
                }
                if let Some(s) = store {
                    s.set_totals(
                        workload_fp.unwrap_or(0),
                        ProgramTotals {
                            total_insts: emu.retired(),
                            halted: emu.halted(),
                        },
                    );
                }
                (emu.retired(), emu.halted())
            }
        };

        if let Some(g) = plan_span.as_mut() {
            g.detail(&format!("windows={}", plans.len()));
        }
        drop(plan_span);

        let mut sim_span = self.span("simulate");
        if let Some(g) = sim_span.as_mut() {
            g.detail(&format!("windows={}", plans.len()));
        }
        let windows = self.simulate_windows(w, cfg, &plans)?;
        drop(sim_span);
        Ok(SampledRun {
            windows,
            total_insts,
            halted,
            config: *cfg,
        })
    }

    /// Simulates every planned window, `cfg.threads` at a time, and
    /// returns the reports in window order, or the first window's
    /// error by window order.
    fn simulate_windows(
        &self,
        w: &Workload,
        cfg: &SamplingConfig,
        plans: &[WindowPlan],
    ) -> Result<Vec<WindowReport>, RunError> {
        // Cycle budget per window, scaled the way workload budgets are.
        let max_cycles = (cfg.warmup_insts + cfg.window_insts).saturating_mul(60) + 200_000;
        par_map(plans, cfg.threads, |plan| {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut core = self.build_core();
                plan.window.warmed.install_into(&mut core);
                core.run_window(
                    &w.program,
                    &plan.window.checkpoint,
                    plan.warmup_insts,
                    cfg.window_insts,
                    max_cycles,
                )
            }));
            match run {
                Ok(report) => report.map(|report| WindowReport {
                    index: plan.index,
                    checkpoint_inst: plan.window.checkpoint.retired,
                    report,
                }),
                Err(payload) => Err(RunError::Internal {
                    message: panic_message(payload),
                }),
            }
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_core::SchemeKind;
    use dgl_pipeline::Provenance;
    use dgl_workloads::{by_name, Scale};

    fn sampled(threads: usize) -> SampledRun {
        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::DoM).address_prediction(true);
        sampled_on(&b, threads)
    }

    fn sampled_on(b: &SimBuilder, threads: usize) -> SampledRun {
        let w = by_name("hmmer_like", Scale::Custom(12_000)).unwrap();
        let cfg = SamplingConfig {
            interval_insts: 3_000,
            warmup_insts: 800,
            window_insts: 400,
            threads,
            ..SamplingConfig::default()
        };
        b.run_sampled(&w, &cfg).expect("sampled run")
    }

    #[test]
    fn profiled_windows_time_their_installed_hierarchies() {
        // Each window core gets its warmed hierarchy through
        // `Core::install_memory_system`; the core times the calls it
        // makes to whichever hierarchy it holds.
        let reg = Arc::new(dgl_pipeline::core_prof_registry());
        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::DoM).profiling(Arc::clone(&reg));
        let run = sampled_on(&b, 1);
        let prof = reg.snapshot();
        let calls = |name| prof.entries.iter().find(|e| e.name == name).unwrap().calls;
        assert!(calls("mem.hierarchy") > 0, "{prof:?}");
        assert!(calls("writeback") > 0, "{prof:?}");
        assert!(run.windows.iter().all(|w| w.report.prof.is_some()));
    }

    #[test]
    fn windows_carry_sampled_provenance() {
        let run = sampled(0);
        assert!(!run.windows.is_empty());
        assert!(run.halted);
        // Scale::Custom is an approximate target; accept the same 0.5×
        // slack the workload crate's own scale test allows.
        assert!(run.total_insts >= 6_000, "total = {}", run.total_insts);
        for win in &run.windows {
            match win.report.provenance {
                Provenance::SampledWindow {
                    checkpoint_inst, ..
                } => assert_eq!(checkpoint_inst, win.checkpoint_inst),
                Provenance::Full => panic!("window reported full provenance"),
            }
        }
        assert!(run.ipc() > 0.0);
        assert!(run.estimated_cycles() > 0.0);
    }

    #[test]
    fn thread_count_does_not_change_the_estimate() {
        let one = sampled(1);
        let four = sampled(4);
        assert_eq!(one.ipc().to_bits(), four.ipc().to_bits());
        assert_eq!(one.measured_insts(), four.measured_insts());
        assert_eq!(one.measured_cycles(), four.measured_cycles());
    }

    #[test]
    fn warmed_state_does_not_depend_on_address_prediction() {
        // The shared warm key rests on this: a stride table trained on
        // committed loads under AP on and under AP off ends up word for
        // word the same, so the builder's flag may stay out of the key.
        let w = by_name("libquantum_like", Scale::Custom(6_000)).unwrap();
        let b = SimBuilder::new();
        let warmed = |address_prediction: bool| {
            let mut warmer = FunctionalWarmer::template(&b, &w);
            warmer.ap = AddressPredictor::new(b.config.doppelganger, address_prediction);
            let mut emu = Emulator::new(&w.program, w.memory.clone());
            while !emu.halted() {
                emu.step_observed(&mut |ev| warmer.observe(ev)).unwrap();
            }
            assert!(
                warmer.ap.stats().prefetches_proposed > 0,
                "stride table trained"
            );
            let mut words = Vec::new();
            warmer.dump_state(&mut words);
            words
        };
        assert_eq!(warmed(true), warmed(false));
    }

    #[test]
    #[should_panic(expected = "interval must be > 0")]
    fn zero_interval_rejected() {
        let w = by_name("hmmer_like", Scale::Custom(1_000)).unwrap();
        let cfg = SamplingConfig {
            interval_insts: 0,
            ..SamplingConfig::default()
        };
        let _ = SimBuilder::new().run_sampled(&w, &cfg);
    }
}
