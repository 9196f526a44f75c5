//! A reset core is a fresh core: one `Core` reused across a shuffled
//! sequence of runs, each preceded by `SimBuilder::reset_core`, must
//! report exactly what a freshly built core reports for the same run.
//!
//! The sequence mixes every `ConfigId`, generated fuzz programs (with
//! and without a two-secret gadget, under either secret), suite kernels
//! with pre-warmed hot ranges, a run with a structured trace sink, a
//! DoM+VP run and a run that ends in a `RunError` part-way through, so
//! every structure a run can leave behind (caches, MSHRs, the branch
//! predictor and BTB, the stride table, the queues, the value
//! predictor, the return-address stack) is dirty when the next run
//! starts. Each failing run, which stops inside a call, is followed by
//! a return with no call, which a leftover return address would
//! mispredict.

use dgl_core::SchemeKind;
use dgl_fuzz::{fuzz_memory, generate, SECRET_A, SECRET_B};
use dgl_isa::{ArchEvent, Program, ProgramBuilder, Reg, SparseMemory};
use dgl_mem::Level;
use dgl_pipeline::{Core, RunError, RunReport};
use dgl_sim::experiments::ConfigId;
use dgl_sim::SimBuilder;
use dgl_trace::{MemEvent, SharedSink, TraceSink};
use dgl_workloads::{catalog, Scale, Workload};

/// Generated programs in the sequence.
const FUZZ_PROGRAMS: u64 = 64;
/// Cycle budget of a generated program's run.
const MAX_CYCLES: u64 = 2_000_000;

/// One run of the sequence.
#[derive(Debug, Clone)]
enum Job {
    /// Generated program `seed` under `config`, with secret `secret`.
    Fuzz {
        seed: u64,
        config: ConfigId,
        secret: u8,
    },
    /// A suite kernel, its hot ranges warmed first.
    Kernel { index: usize, config: ConfigId },
    /// A generated program with a recording trace sink installed.
    Traced { seed: u64, config: ConfigId },
    /// DoM with value prediction on a generated program.
    DomVp { seed: u64 },
    /// A loop that trains every structure, then jumps off the program.
    Fails { config: ConfigId },
    /// A return with no call before it.
    Returns { config: ConfigId },
}

/// Everything the two cores' runs must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    metrics: String,
    cpi: String,
    regs: [i64; dgl_isa::reg::NUM_REGS],
    memory: SparseMemory,
    commit_log: Option<Vec<ArchEvent>>,
    observation: Vec<(u64, MemEvent)>,
    cycles: u64,
    elided_cycles: u64,
    sink_events: Option<Vec<dgl_trace::TraceEvent>>,
    /// Residency, at each level, of every line the run looked up or
    /// filled, in the hierarchy the run left behind.
    resident: Vec<[bool; 3]>,
}

/// A call into a loop of strided loads, stores and branches that trains
/// the caches, the stride table and the branch predictor, then takes an
/// indirect jump out of the program: a `RunError` after real work, with
/// the call's return address still on the return-address stack.
fn failing_program() -> Program {
    let r = Reg::new;
    let mut b = ProgramBuilder::new("fails");
    b.call("body")
        .halt()
        .label("body")
        .imm(r(1), 0x0100_0000)
        .imm(r(2), 40)
        .label("top")
        .load(r(3), r(1), 0)
        .addi(r(3), r(3), 1)
        .store(r(3), r(1), 8)
        .addi(r(1), r(1), 64)
        .subi(r(2), r(2), 1)
        .bne(r(2), Reg::ZERO, "top")
        .imm(r(4), 1_000_000)
        .jr(r(4))
        .halt();
    b.build().expect("failing program builds")
}

/// A return to the `halt` after it, with no call before it: a fresh
/// core's fetch waits for it to resolve, while a core that kept a
/// return address would predict it and squash.
fn returning_program() -> Program {
    let mut b = ProgramBuilder::new("returns");
    b.imm(Reg::LINK, 2).ret().halt();
    b.build().expect("returning program builds")
}

/// Three suite kernels that declare hot ranges to warm.
fn kernels() -> Vec<Workload> {
    let kernels: Vec<Workload> = catalog()
        .iter()
        .map(|spec| spec.build(Scale::Custom(3_000)))
        .filter(|w| !w.warm_ranges.is_empty())
        .take(3)
        .collect();
    assert_eq!(kernels.len(), 3, "the suite has three warmed kernels");
    kernels
}

fn builder(config: ConfigId) -> SimBuilder {
    let mut b = SimBuilder::new();
    b.scheme(config.scheme())
        .address_prediction(config.ap())
        .trace(true);
    b
}

impl Job {
    /// The builder this job runs under.
    fn builder(&self, sink: Option<&SharedSink>) -> SimBuilder {
        match self {
            Job::Fuzz { config, .. }
            | Job::Kernel { config, .. }
            | Job::Fails { config }
            | Job::Returns { config } => builder(*config),
            Job::Traced { config, .. } => {
                let mut b = builder(*config);
                b.with_trace(sink.expect("a traced job gets a sink").clone());
                b
            }
            Job::DomVp { .. } => {
                let mut b = builder(ConfigId::ALL[0]);
                b.scheme(SchemeKind::DoM).value_prediction(true);
                b
            }
        }
    }

    /// Runs the job on `core`, already built or reset for it.
    fn run_on(&self, core: &mut Core, kernels: &[Workload]) -> Result<RunReport, RunError> {
        core.enable_commit_log();
        match self {
            Job::Fuzz { seed, secret, .. } => {
                core.run_in_place(&generate(*seed).program, fuzz_memory(*secret), MAX_CYCLES)
            }
            Job::Traced { seed, .. } | Job::DomVp { seed } => {
                core.run_in_place(&generate(*seed).program, fuzz_memory(SECRET_A), MAX_CYCLES)
            }
            Job::Kernel { index, .. } => {
                let w = &kernels[*index];
                core.warm_ranges(&w.warm_ranges);
                core.run_in_place(&w.program, w.memory.clone(), w.max_cycles)
            }
            Job::Fails { .. } => {
                core.run_in_place(&failing_program(), SparseMemory::new(), MAX_CYCLES)
            }
            Job::Returns { .. } => {
                core.run_in_place(&returning_program(), SparseMemory::new(), MAX_CYCLES)
            }
        }
    }
}

fn outcome(
    report: Result<RunReport, RunError>,
    core: &Core,
    sink: Option<&mut SharedSink>,
) -> Result<Outcome, RunError> {
    let report = report?;
    let mem = core.memory_system();
    let resident = report
        .mem_trace
        .iter()
        .map(|&(line, _)| [Level::L1, Level::L2, Level::L3].map(|level| mem.contains(level, line)))
        .collect();
    Ok(Outcome {
        metrics: report.metrics().to_json().to_string(),
        cpi: report
            .cpi
            .as_ref()
            .expect("a core reports CPI")
            .to_json()
            .to_string(),
        regs: report.regs,
        memory: report.memory,
        commit_log: report.commit_log,
        observation: report.mem_trace,
        cycles: report.cycles,
        elided_cycles: report.elided_cycles,
        sink_events: sink.map(|s| s.drain()),
        resident,
    })
}

/// The shuffled job sequence: every program under a rotating
/// configuration and secret, each kernel under two configurations, and
/// the traced, DoM+VP and failing runs, each failing run followed by a
/// returning one.
fn jobs() -> Vec<Job> {
    let configs = ConfigId::ALL;
    let mut jobs: Vec<Job> = (0..FUZZ_PROGRAMS)
        .map(|seed| Job::Fuzz {
            seed,
            config: configs[seed as usize % configs.len()],
            secret: if seed % 3 == 0 { SECRET_B } else { SECRET_A },
        })
        .collect();
    for index in 0..3 {
        for config in [configs[index], configs[7 - index]] {
            jobs.push(Job::Kernel { index, config });
        }
    }
    jobs.push(Job::Traced {
        seed: 7,
        config: configs[5],
    });
    jobs.push(Job::DomVp { seed: 11 });
    for config in [configs[2], configs[6]] {
        jobs.push(Job::Fails { config });
    }
    // Fisher-Yates with a fixed LCG, so every run sees the same order.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..jobs.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        jobs.swap(i, (state >> 33) as usize % (i + 1));
    }
    for i in (0..jobs.len()).rev() {
        if let Job::Fails { config } = jobs[i] {
            jobs.insert(i + 1, Job::Returns { config });
        }
    }
    jobs
}

#[test]
fn a_reset_core_reports_exactly_what_a_fresh_core_reports() {
    let jobs = jobs();
    let gadgets = (0..FUZZ_PROGRAMS)
        .filter(|&s| generate(s).has_gadget)
        .count() as u64;
    assert!(
        gadgets > 0 && gadgets < FUZZ_PROGRAMS,
        "the sequence mixes gadget and non-gadget programs ({gadgets} gadgets)"
    );
    // The failing runs must come after real work and before more of it.
    let first_fail = jobs
        .iter()
        .position(|j| matches!(j, Job::Fails { .. }))
        .unwrap();
    assert!(first_fail > 0 && first_fail + 1 < jobs.len());
    let kernels = kernels();
    let mut reused = SimBuilder::new().build_core();
    let (mut errors, mut seen) = (0, [false; 8]);
    for (i, job) in jobs.iter().enumerate() {
        let (mut sink_fresh, mut sink_reused) = (SharedSink::recording(), SharedSink::recording());
        let traced = matches!(job, Job::Traced { .. });
        let mut fresh = job.builder(Some(&sink_fresh)).build_core();
        let fresh_report = job.run_on(&mut fresh, &kernels);
        let want = outcome(fresh_report, &fresh, traced.then_some(&mut sink_fresh));
        job.builder(Some(&sink_reused)).reset_core(&mut reused);
        let reused_report = job.run_on(&mut reused, &kernels);
        let got = outcome(reused_report, &reused, traced.then_some(&mut sink_reused));
        assert!(got == want, "run {i} ({job:?}): the reset core diverged");
        match &want {
            Err(_) => errors += 1,
            Ok(o) if traced => {
                assert!(o.sink_events.as_ref().is_some_and(|e| !e.is_empty()));
            }
            Ok(_) => {}
        }
        if let Job::Fuzz { config, .. } | Job::Kernel { config, .. } = job {
            seen[ConfigId::ALL.iter().position(|c| c == config).unwrap()] = true;
        }
    }
    assert_eq!(errors, 2, "both failing runs end in a RunError");
    assert!(seen.iter().all(|&s| s), "every configuration ran");
}

#[test]
fn a_reset_core_releases_state_installed_from_a_snapshot() {
    // A warmed hierarchy installed from elsewhere (as sampled windows
    // do) shares its chunks; a reset must release them and leave cold
    // caches.
    let kernel = &kernels()[0];
    let b = builder(ConfigId::ALL[3]);
    let mut donor = b.build_core();
    donor.warm_ranges(&kernel.warm_ranges);
    let mut snapshot = donor.memory_system().clone();
    snapshot.freeze();
    let mut core = b.build_core();
    core.install_memory_system(snapshot);
    let (start, _) = kernel.warm_ranges[0];
    assert!(core.memory_system().contains(Level::L3, start));
    b.reset_core(&mut core);
    assert!(!core.memory_system().contains(Level::L3, start));
    let job = Job::Kernel {
        index: 0,
        config: ConfigId::ALL[3],
    };
    let kernels = kernels();
    let mut fresh = b.build_core();
    let want = outcome(job.run_on(&mut fresh, &kernels), &fresh, None);
    let got = outcome(job.run_on(&mut core, &kernels), &core, None);
    assert!(got == want, "a reset after an install diverged");
}
