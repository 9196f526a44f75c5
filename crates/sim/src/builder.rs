//! The simulation builder.

use dgl_core::SchemeKind;
use dgl_isa::hash::fnv1a64;
use dgl_isa::{Program, SparseMemory};
use dgl_pipeline::{Core, CoreConfig, RunError, RunReport};
use dgl_stats::{ProfRegistry, SpanCollector, SpanGuard};
use dgl_trace::{SharedFlightRecorder, SharedSink};
use dgl_workloads::Workload;
use std::sync::Arc;

/// Configures and launches simulations (non-consuming builder). Every
/// report carries its exact CPI stack; cycle accounting has no switch.
///
/// # Examples
///
/// ```
/// use dgl_sim::SimBuilder;
/// use dgl_core::SchemeKind;
/// use dgl_isa::{ProgramBuilder, Reg, SparseMemory};
///
/// let mut b = ProgramBuilder::new("two");
/// b.imm(Reg::new(1), 2).halt();
/// let p = b.build()?;
/// let report = SimBuilder::new()
///     .scheme(SchemeKind::DoM)
///     .run_program(&p, SparseMemory::new(), 100_000)?;
/// assert_eq!(report.committed, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    scheme: SchemeKind,
    pub(crate) address_prediction: bool,
    pub(crate) value_prediction: bool,
    pub(crate) config: CoreConfig,
    pub(crate) trace: bool,
    trace_sink: Option<SharedSink>,
    occupancy_interval: Option<u64>,
    prof: Option<Arc<ProfRegistry>>,
    elide: bool,
    spans: Option<(SpanCollector, u32)>,
    flight: Option<SharedFlightRecorder>,
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimBuilder {
    /// Unsafe baseline, no address prediction, Table 1 configuration.
    pub fn new() -> Self {
        Self {
            scheme: SchemeKind::Baseline,
            address_prediction: false,
            value_prediction: false,
            config: CoreConfig::default(),
            trace: false,
            trace_sink: None,
            occupancy_interval: None,
            prof: None,
            elide: true,
            spans: None,
            flight: None,
        }
    }

    /// Selects the secure speculation scheme.
    pub fn scheme(&mut self, scheme: SchemeKind) -> &mut Self {
        self.scheme = scheme;
        self
    }

    /// Enables or disables doppelganger address prediction.
    pub fn address_prediction(&mut self, enabled: bool) -> &mut Self {
        self.address_prediction = enabled;
        self
    }

    /// Enables load *value* prediction — the DoM+VP comparison mode of
    /// the paper's §2.3. Mutually exclusive with address prediction and
    /// only modelled for DoM and the unsafe baseline;
    /// [`build_core`](Self::build_core) panics otherwise.
    pub fn value_prediction(&mut self, enabled: bool) -> &mut Self {
        self.value_prediction = enabled;
        self
    }

    /// Overrides the core configuration.
    pub fn config(&mut self, config: CoreConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Enables observation-trace recording (security experiments).
    pub fn trace(&mut self, enabled: bool) -> &mut Self {
        self.trace = enabled;
        self
    }

    /// Enables cycle-domain occupancy sampling every `interval_cycles`
    /// (ROB/IQ/LSQ occupancy, MSHR in-flight count, DoM delayed-load
    /// backlog, windowed IPC), reported in
    /// [`RunReport::occupancy`](dgl_pipeline::RunReport::occupancy).
    /// Sampling is read-only and cannot change simulated results.
    pub fn occupancy_sampling(&mut self, interval_cycles: u64) -> &mut Self {
        self.occupancy_interval = Some(interval_cycles);
        self
    }

    /// Installs a structured [`SharedSink`] receiving per-instruction
    /// stage stamps, doppelganger lifecycle transitions, and memory
    /// hierarchy events. Keep a clone of the sink to drain after the
    /// run (or take it back from [`RunReport::trace_sink`]):
    ///
    /// ```
    /// use dgl_sim::SimBuilder;
    /// use dgl_isa::{ProgramBuilder, Reg, SparseMemory};
    /// use dgl_trace::{SharedSink, TraceSink};
    ///
    /// let mut b = ProgramBuilder::new("t");
    /// b.imm(Reg::new(1), 0x4000).load(Reg::new(2), Reg::new(1), 0).halt();
    /// let sink = SharedSink::recording();
    /// SimBuilder::new()
    ///     .with_trace(sink.clone())
    ///     .run_program(&b.build()?, SparseMemory::new(), 10_000)?;
    /// assert!(!sink.is_empty());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn with_trace(&mut self, sink: SharedSink) -> &mut Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Installs a flight recorder: a fixed-capacity lossy
    /// ring receiving the same event stream as
    /// [`with_trace`](Self::with_trace), kept for post-mortem dumps
    /// when a run dies (deadlock, panic, oracle divergence). Keep a
    /// clone: its buffer outlives the core. Each core emits into its
    /// own [`local_sink`](SharedFlightRecorder::local_sink), which
    /// joins the recorder when the run ends or the core is dropped
    /// (unwinding included), so emitting takes no lock. When a full
    /// trace sink is also installed it wins (the recorder would be
    /// redundant). Like any sink it makes every core build and emit
    /// every trace event, so serve and the fuzzer attach one only to
    /// the replay of a failed run.
    /// Host-side observability only — simulated results are
    /// byte-identical with the recorder on or off (pinned by the
    /// `telemetry_identical` integration test).
    pub fn flight_recorder(&mut self, recorder: SharedFlightRecorder) -> &mut Self {
        self.flight = Some(recorder);
        self
    }

    /// Attaches a host-side [`SpanCollector`]: the builder's run entry
    /// points time their phases (`ckpt_plan`, `simulate`) into it on
    /// `track`. Host-side observability only; cannot perturb simulated
    /// results.
    pub fn with_spans(&mut self, collector: SpanCollector, track: u32) -> &mut Self {
        self.spans = Some((collector, track));
        self
    }

    /// Opens a named span on the attached collector, if any.
    pub(crate) fn span(&self, name: &str) -> Option<SpanGuard> {
        self.spans
            .as_ref()
            .map(|(collector, track)| collector.begin(*track, name))
    }

    /// Enables host-side self-profiling into `reg`, which must carry
    /// the slots of [`dgl_pipeline::core_prof_registry`] (build it
    /// there and keep a clone to snapshot after the run, or read the
    /// snapshot from [`RunReport::prof`](dgl_pipeline::RunReport)).
    /// One registry may be shared by many builders/cores to profile a
    /// whole experiment matrix. Host-side observability only: the
    /// simulated results are byte-identical with profiling off and on.
    pub fn profiling(&mut self, reg: Arc<ProfRegistry>) -> &mut Self {
        self.prof = Some(reg);
        self
    }

    /// Enables or disables the event-driven skip-ahead kernel (on by
    /// default). With elision on, the core fast-forwards across cycles
    /// in which no architectural state can change; simulated results
    /// are byte-identical either way (pinned by the
    /// `elision_identical` integration test), so turning it off is
    /// only useful for debugging the kernel itself or measuring its
    /// host-side speedup.
    pub fn elision(&mut self, enabled: bool) -> &mut Self {
        self.elide = enabled;
        self
    }

    /// Builds the underlying [`Core`] without running it (advanced use:
    /// warming lines, issuing invalidations mid-run in tests, probing
    /// the caches after [`Core::run_in_place`]).
    pub fn build_core(&self) -> Core {
        let mut core = Core::new(self.config, self.scheme, self.address_prediction);
        self.configure(&mut core);
        core
    }

    /// Returns `core` to the state [`build_core`](Self::build_core)
    /// builds, keeping its allocations (see [`Core::reset`]): the way
    /// to run many configurations of one program on one core.
    ///
    /// # Panics
    ///
    /// Panics when `core` was built for another core configuration.
    pub fn reset_core(&self, core: &mut Core) {
        assert!(
            core.config() == self.config,
            "a core is reset only for the configuration it was built with"
        );
        core.reset(self.scheme, self.address_prediction);
        self.configure(core);
    }

    /// Applies every option beyond scheme and address prediction to a
    /// fresh or just-reset core.
    fn configure(&self, core: &mut Core) {
        if self.value_prediction {
            core.enable_value_prediction();
        }
        if self.trace {
            core.set_trace(true);
        }
        if let Some(sink) = &self.trace_sink {
            core.set_trace_sink(Box::new(sink.clone()));
        } else if let Some(recorder) = &self.flight {
            core.set_trace_sink(Box::new(recorder.local_sink()));
        }
        if let Some(interval) = self.occupancy_interval {
            core.enable_occupancy_sampling(interval);
        }
        if let Some(reg) = &self.prof {
            core.enable_profiling(Arc::clone(reg));
        }
        core.set_elision(self.elide);
    }

    /// Runs an arbitrary program.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the core.
    pub fn run_program(
        &self,
        program: &Program,
        memory: SparseMemory,
        max_cycles: u64,
    ) -> Result<RunReport, RunError> {
        self.build_core().run(program, memory, max_cycles)
    }

    /// Runs a suite workload with its own cycle budget, pre-warming the
    /// workload's declared hot ranges into the cache hierarchy first
    /// (the stand-in for simpoint warm-up).
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the core.
    pub fn run_workload(&self, w: &Workload) -> Result<RunReport, RunError> {
        let mut guard = self.span("simulate");
        if let Some(g) = guard.as_mut() {
            g.detail(w.name);
        }
        let mut core = self.build_core();
        self.warm_core(&mut core, w);
        core.run(&w.program, w.memory.clone(), w.max_cycles)
    }

    /// A deterministic fingerprint of everything that shapes
    /// functionally-warmed state: [`fnv1a64`] over the `Debug` text of
    /// the cache-hierarchy geometry, the branch-predictor geometry and
    /// the doppelganger configuration, in turn. Two builders with equal
    /// fingerprints produce bit-identical warmed checkpoints for the
    /// same workload, so checkpoint-store entries are shared across
    /// schemes (warming is scheme-independent) and across the
    /// address-prediction flag (the stride table trains only on
    /// committed loads, and the flag is the core's, not the config's),
    /// but never across configurations that would warm differently.
    /// `Debug` text covers every field by construction; renaming one
    /// costs only a cold store.
    pub fn warm_fingerprint(&self) -> u64 {
        let c = &self.config;
        fnv1a64(format!("{:?}{:?}{:?}", c.hierarchy, c.branch, c.doppelganger).as_bytes())
    }

    /// Pre-warms a workload's declared hot ranges, walking them at the
    /// configured L1 line size through
    /// [`MemorySystem::warm_ranges`](dgl_mem::MemorySystem::warm_ranges),
    /// the call the sampled template warmer makes too.
    pub(crate) fn warm_core(&self, core: &mut Core, w: &Workload) {
        core.warm_ranges(&w.warm_ranges);
    }
}

/// Error returned by [`SimBuilder::run_verified`]: the timing model
/// diverged from the golden model (always a simulator bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The timing model's run failed.
    Run(RunError),
    /// The golden model itself faulted (bad program).
    Golden(String),
    /// Final state differs from the golden model.
    Mismatch {
        /// Human-readable description of the first divergence.
        detail: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Run(e) => write!(f, "timing model failed: {e}"),
            VerifyError::Golden(e) => write!(f, "golden model failed: {e}"),
            VerifyError::Mismatch { detail } => {
                write!(f, "timing model diverged from the golden model: {detail}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The golden model's walk of one program: the final registers and
/// memory image, the instruction count and the retired-instruction
/// event stream every timing run of that program must reproduce. Walk
/// it once and [`check`](Self::check) any number of runs against it.
#[derive(Debug, Clone)]
pub struct Golden {
    retired: u64,
    regs: [i64; dgl_isa::reg::NUM_REGS],
    memory: SparseMemory,
    events: Vec<dgl_isa::ArchEvent>,
}

impl Golden {
    /// Runs `program` on `memory` in the in-order emulator, recording
    /// every retired event. The step budget is the one
    /// [`SimBuilder::run_verified`] grants a run of `max_cycles`
    /// cycles: sixteen steps per cycle, at least a million.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Golden`] when the emulator faults or the program
    /// does not halt within the budget.
    pub fn walk(
        program: &Program,
        memory: SparseMemory,
        max_cycles: u64,
    ) -> Result<Self, VerifyError> {
        Self::walk_within(
            program,
            memory,
            max_cycles.saturating_mul(16).max(1_000_000),
        )
    }

    /// [`walk`](Self::walk) with an explicit step budget: the program
    /// must halt within `budget` retired instructions, its `halt`
    /// included. A caller that rejects long-running programs anyway
    /// (a minimizer's candidates) pays for at most `budget` steps.
    ///
    /// # Errors
    ///
    /// As [`walk`](Self::walk).
    pub fn walk_within(
        program: &Program,
        memory: SparseMemory,
        budget: u64,
    ) -> Result<Self, VerifyError> {
        let mut emu = dgl_isa::Emulator::new(program, memory);
        let mut events = Vec::new();
        let mut retired: u64 = 0;
        while retired < budget && !emu.halted() {
            match emu.step_observed(&mut |e| events.push(e)) {
                Ok(_) => retired += 1,
                Err(e) => return Err(VerifyError::Golden(e.to_string())),
            }
        }
        if !emu.halted() {
            return Err(VerifyError::Golden(format!(
                "program did not halt within {budget} steps"
            )));
        }
        Ok(Self {
            retired,
            regs: emu.regs(),
            memory: emu.into_memory(),
            events,
        })
    }

    /// Cross-checks a timing run's final architectural state (every
    /// register, the full memory image, the instruction count) and its
    /// retired-instruction event stream (every load and store address,
    /// every resolved control-flow decision, in commit order) against
    /// this walk. The report must carry a commit log
    /// ([`Core::enable_commit_log`]).
    ///
    /// # Errors
    ///
    /// [`VerifyError::Mismatch`] describing the first divergence.
    pub fn check(&self, report: &RunReport) -> Result<(), VerifyError> {
        let mismatch = |detail: String| Err(VerifyError::Mismatch { detail });
        if report.committed != self.retired {
            return mismatch(format!(
                "instruction count {} vs golden {}",
                report.committed, self.retired
            ));
        }
        for r in dgl_isa::Reg::all() {
            let golden = self.regs[r.index()];
            if report.reg(r) != golden {
                return mismatch(format!("{r} = {} vs golden {golden}", report.reg(r)));
            }
        }
        if report.memory != self.memory {
            return mismatch("memory image differs".to_owned());
        }
        let log = report
            .commit_log
            .as_deref()
            .expect("a verified run enables the commit log");
        if log != self.events {
            let golden = &self.events;
            return mismatch(match log.iter().zip(golden).position(|(a, b)| a != b) {
                Some(i) => format!("retired event {i}: {:?} vs golden {:?}", log[i], golden[i]),
                None => format!(
                    "retired event stream length {} vs golden {}",
                    log.len(),
                    golden.len()
                ),
            });
        }
        Ok(())
    }
}

impl SimBuilder {
    /// Runs `program` and cross-checks it against the in-order golden
    /// model ([`Golden::walk`], then [`Golden::check`]). For users
    /// modifying the pipeline: run this on your workload before
    /// trusting timing numbers.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Golden`] when the golden model faults or does not
    /// halt, [`VerifyError::Run`] when the timing run fails, and
    /// [`VerifyError::Mismatch`] on the first divergence; otherwise the
    /// report.
    pub fn run_verified(
        &self,
        program: &Program,
        memory: SparseMemory,
        max_cycles: u64,
    ) -> Result<RunReport, VerifyError> {
        let golden = Golden::walk(program, memory.clone(), max_cycles)?;
        verify_in_place(&mut self.build_core(), &golden, program, memory, max_cycles)
    }

    /// [`run_verified`](Self::run_verified) on a kept core against a
    /// walk already taken: resets `core` to this builder's
    /// configuration (see [`reset_core`](Self::reset_core)), so one
    /// golden walk and one core serve every configuration of a
    /// program. `golden` must be the walk of `program` on `memory`.
    ///
    /// # Errors
    ///
    /// As [`run_verified`](Self::run_verified), less the golden-model
    /// failures the walk already reported.
    pub fn run_verified_on(
        &self,
        core: &mut Core,
        golden: &Golden,
        program: &Program,
        memory: SparseMemory,
        max_cycles: u64,
    ) -> Result<RunReport, VerifyError> {
        self.reset_core(core);
        verify_in_place(core, golden, program, memory, max_cycles)
    }
}

/// Runs a fresh or just-reset core with its commit log on and checks
/// the report against `golden`: the one verification path.
fn verify_in_place(
    core: &mut Core,
    golden: &Golden,
    program: &Program,
    memory: SparseMemory,
    max_cycles: u64,
) -> Result<RunReport, VerifyError> {
    core.enable_commit_log();
    let report = core
        .run_in_place(program, memory, max_cycles)
        .map_err(VerifyError::Run)?;
    golden.check(&report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_isa::{ProgramBuilder, Reg};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg::new(1), 1).halt();
        b.build().unwrap()
    }

    #[test]
    fn default_is_unsafe_baseline() {
        let b = SimBuilder::new();
        let rep = b
            .run_program(&tiny_program(), SparseMemory::new(), 10_000)
            .unwrap();
        assert!(rep.halted);
        assert_eq!(rep.stats.dgl_issued, 0);
    }

    #[test]
    fn builder_chains() {
        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::NdaP)
            .address_prediction(true)
            .config(CoreConfig::tiny())
            .trace(true);
        let rep = b
            .run_program(&tiny_program(), SparseMemory::new(), 10_000)
            .unwrap();
        assert!(rep.halted);
    }

    #[test]
    fn run_verified_accepts_correct_execution() {
        let mut b = ProgramBuilder::new("v");
        b.imm(Reg::new(1), 0x1000)
            .imm(Reg::new(2), 7)
            .store(Reg::new(2), Reg::new(1), 0)
            .load(Reg::new(3), Reg::new(1), 0)
            .halt();
        let p = b.build().unwrap();
        let mut builder = SimBuilder::new();
        builder.scheme(SchemeKind::DoM).address_prediction(true);
        let rep = builder
            .run_verified(&p, SparseMemory::new(), 100_000)
            .expect("verified");
        assert_eq!(rep.reg(Reg::new(3)), 7);
    }

    #[test]
    fn run_verified_compares_the_retired_event_stream() {
        use dgl_isa::ArchEvent;
        // A loop with a store-to-load pair: the commit log must carry
        // every load/store address and every branch decision, in commit
        // order, exactly as the golden model emits them.
        let mut b = ProgramBuilder::new("events");
        b.imm(Reg::new(1), 0x4000)
            .imm(Reg::new(2), 3)
            .label("top")
            .store(Reg::new(2), Reg::new(1), 0)
            .load(Reg::new(3), Reg::new(1), 0)
            .addi(Reg::new(1), Reg::new(1), 8)
            .subi(Reg::new(2), Reg::new(2), 1)
            .bne(Reg::new(2), Reg::ZERO, "top")
            .halt();
        let p = b.build().unwrap();
        let mut builder = SimBuilder::new();
        builder.scheme(SchemeKind::NdaP).address_prediction(true);
        let rep = builder
            .run_verified(&p, SparseMemory::new(), 100_000)
            .expect("verified");
        let log = rep.commit_log.as_deref().expect("log enabled");
        // 3 iterations x (store + load + branch) events.
        assert_eq!(log.len(), 9);
        assert!(matches!(
            log[0],
            ArchEvent::Store {
                pc: 2,
                addr: 0x4000
            }
        ));
        assert!(matches!(
            log[1],
            ArchEvent::Load {
                pc: 3,
                addr: 0x4000
            }
        ));
        assert!(matches!(
            log[2],
            ArchEvent::Branch {
                pc: 6,
                taken: true,
                next: 2
            }
        ));
        // The final branch falls through.
        assert!(matches!(log[8], ArchEvent::Branch { taken: false, .. }));
    }

    #[test]
    fn run_verified_flags_bad_programs() {
        // A program the golden model rejects (bad indirect target).
        let mut b = ProgramBuilder::new("bad");
        b.imm(Reg::new(1), 999).jr(Reg::new(1)).halt();
        let p = b.build().unwrap();
        let err = SimBuilder::new()
            .run_verified(&p, SparseMemory::new(), 10_000)
            .unwrap_err();
        assert!(matches!(err, VerifyError::Golden(_) | VerifyError::Run(_)));
    }

    #[test]
    fn a_golden_model_that_never_halts_is_a_golden_failure() {
        // Two instructions that loop forever: the walk runs out of
        // steps, which must not read as a simulator divergence.
        let mut b = ProgramBuilder::new("spin");
        b.label("top").nop().jmp("top").halt();
        let p = b.build().unwrap();
        let err = SimBuilder::new()
            .run_verified(&p, SparseMemory::new(), 1_000)
            .unwrap_err();
        assert_eq!(
            err,
            VerifyError::Golden("program did not halt within 1000000 steps".into())
        );
    }

    #[test]
    fn the_golden_check_names_the_first_divergence_of_a_tampered_report() {
        // A loop with loads, stores and branches, so every part of the
        // check has something to compare.
        let mut b = ProgramBuilder::new("tamper");
        b.imm(Reg::new(1), 0x4000)
            .imm(Reg::new(2), 3)
            .label("top")
            .store(Reg::new(2), Reg::new(1), 0)
            .load(Reg::new(3), Reg::new(1), 0)
            .addi(Reg::new(1), Reg::new(1), 8)
            .subi(Reg::new(2), Reg::new(2), 1)
            .bne(Reg::new(2), Reg::ZERO, "top")
            .halt();
        let p = b.build().unwrap();
        let golden = Golden::walk(&p, SparseMemory::new(), 100_000).unwrap();
        let mut builder = SimBuilder::new();
        builder.scheme(SchemeKind::Stt).address_prediction(true);
        let report = || {
            builder
                .run_verified(&p, SparseMemory::new(), 100_000)
                .expect("the untampered run verifies")
        };
        let detail = |r: &RunReport| match golden.check(r) {
            Err(VerifyError::Mismatch { detail }) => detail,
            other => panic!("expected a mismatch, got {other:?}"),
        };
        assert_eq!(golden.check(&report()), Ok(()));

        let mut r = report();
        r.regs[3] += 1;
        assert_eq!(detail(&r), "r3 = 2 vs golden 1");

        let mut r = report();
        let byte = r.memory.read_u8(0x4008);
        r.memory.write_u8(0x4008, byte ^ 0xff);
        assert_eq!(detail(&r), "memory image differs");

        let mut r = report();
        let log = r.commit_log.as_mut().unwrap();
        let (second, third) = (log[1], log[2]);
        log.remove(1);
        assert_eq!(
            detail(&r),
            format!("retired event 1: {third:?} vs golden {second:?}")
        );
        let mut r = report();
        r.commit_log.as_mut().unwrap().pop();
        assert_eq!(detail(&r), "retired event stream length 8 vs golden 9");

        let mut r = report();
        r.committed += 1;
        assert_eq!(detail(&r), "instruction count 19 vs golden 18");
        let shown = golden.check(&r).unwrap_err().to_string();
        assert_eq!(
            shown,
            "timing model diverged from the golden model: instruction count 19 vs golden 18"
        );
    }

    #[test]
    fn with_trace_shares_one_buffer_with_the_caller() {
        use dgl_trace::{TraceEvent, TraceSink};
        let mut p = ProgramBuilder::new("mem");
        p.imm(Reg::new(1), 0x4000)
            .imm(Reg::new(2), 16)
            .label("top")
            .load(Reg::new(3), Reg::new(1), 0)
            .addi(Reg::new(1), Reg::new(1), 8)
            .subi(Reg::new(2), Reg::new(2), 1)
            .bne(Reg::new(2), Reg::ZERO, "top")
            .halt();
        let p = p.build().unwrap();
        let mut sink = dgl_trace::SharedSink::recording();
        let mut b = SimBuilder::new();
        b.scheme(SchemeKind::NdaP)
            .address_prediction(true)
            .config(CoreConfig::tiny())
            .with_trace(sink.clone());
        let rep = b.run_program(&p, SparseMemory::new(), 100_000).unwrap();
        assert!(rep.halted);
        let events = sink.drain();
        assert!(
            events.iter().any(|e| matches!(e, TraceEvent::Stage { .. })),
            "stage stamps recorded"
        );
        assert!(
            events.iter().any(|e| matches!(e, TraceEvent::Dgl { .. })),
            "doppelganger lifecycle recorded"
        );
        // The report hands the (shared) sink back too.
        assert!(rep.trace_sink.is_some());
    }

    #[test]
    fn trace_flag_records_events() {
        let mut p = ProgramBuilder::new("mem");
        p.imm(Reg::new(1), 0x4000)
            .load(Reg::new(2), Reg::new(1), 0)
            .halt();
        let p = p.build().unwrap();
        let mut b = SimBuilder::new();
        b.trace(true).config(CoreConfig::tiny());
        let rep = b.run_program(&p, SparseMemory::new(), 10_000).unwrap();
        assert!(!rep.mem_trace.is_empty());
        let mut b2 = SimBuilder::new();
        b2.config(CoreConfig::tiny());
        let rep2 = b2.run_program(&p, SparseMemory::new(), 10_000).unwrap();
        assert!(rep2.mem_trace.is_empty());
    }
}
