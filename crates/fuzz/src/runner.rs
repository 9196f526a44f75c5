//! The fuzzing loop: generate → oracle → minimize → persist, fanned
//! out over the same worker pool that backs `dgl serve`
//! ([`dgl_sim::serve::run_pool`]).
//!
//! Each case derives its own generator seed from `(base seed, case
//! index)`, so results are deterministic regardless of worker count or
//! scheduling: the same `--seed --iters` pair always fuzzes the same
//! programs. Minimization narrows to the single configuration that
//! failed (re-running all eight per shrink step would dominate the
//! budget) and re-verifies the minimized program against the full
//! matrix before it is saved.

use crate::corpus::save_entry;
use crate::gen::{fuzz_memory, generate, SECRET_A, SECRET_B};
use crate::minimize::minimize;
use crate::oracle::{check_cosim, check_two_secret, observe, Divergence, OracleKind, MAX_CYCLES};
use dgl_isa::{Emulator, Program, SparseMemory};
use dgl_pipeline::Core;
use dgl_sim::experiments::ConfigId;
use dgl_sim::serve::run_pool;
use dgl_sim::telemetry::write_postmortem;
use dgl_sim::{Golden, SimBuilder};
use dgl_stats::{log, Json};
use dgl_trace::SharedFlightRecorder;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Options for one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Base seed; case `i` fuzzes generator seed `mix(seed, i)`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Worker threads (0 = available parallelism). Changes wall-clock
    /// only: every case is a function of its seed alone.
    pub workers: usize,
    /// Where to save minimized reproducers; `None` disables saving.
    pub corpus_dir: Option<PathBuf>,
    /// Print a progress line to stderr every N cases (0 = quiet).
    pub progress_every: u64,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            seed: 1,
            iters: 200,
            workers: 0,
            corpus_dir: None,
            progress_every: 0,
        }
    }
}

/// One confirmed, minimized divergence.
#[derive(Debug, Clone)]
pub struct FoundBug {
    /// Case index within the run.
    pub case: u64,
    /// Generator seed of the offending program.
    pub gen_seed: u64,
    /// Human-readable first-divergence description.
    pub detail: String,
    /// Instructions before minimization.
    pub original_len: usize,
    /// Instructions after minimization.
    pub minimized_len: usize,
    /// Corpus file, when saving was enabled.
    pub saved: Option<PathBuf>,
    /// Flight-recorder post-mortem (`<name>.postmortem.jsonl` next to
    /// the reproducer): the trace tail of a replay of the minimized
    /// program on the divergent configuration.
    pub postmortem: Option<PathBuf>,
}

/// Aggregate results of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Cases executed.
    pub cases: u64,
    /// Cases that carried a two-secret gadget.
    pub gadget_cases: u64,
    /// Gadget cases where the unsafe baseline distinguished the
    /// secrets (the oracle's non-vacuity evidence).
    pub baseline_distinguished: u64,
    /// Every divergence found, minimized.
    pub bugs: Vec<FoundBug>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl FuzzSummary {
    /// Cases per hour, extrapolated from this run.
    pub fn iters_per_hour(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.cases as f64 * 3600.0 / secs
        } else {
            0.0
        }
    }
}

/// Per-case seed derivation (SplitMix64 increment keeps distinct
/// cases decorrelated even for adjacent base seeds).
fn mix(seed: u64, case: u64) -> u64 {
    seed ^ (case.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fast halt check on the golden emulator: minimization candidates
/// that spin forever must be rejected before they reach the (much
/// slower) timing oracle.
fn halts(program: &Program, memory: SparseMemory, max_steps: u64) -> bool {
    let mut emu = Emulator::new(program, memory);
    let mut steps = 0u64;
    loop {
        match emu.step() {
            Ok(true) => {
                steps += 1;
                if steps > max_steps {
                    return false;
                }
            }
            Ok(false) => return true,
            Err(_) => return false,
        }
    }
}

/// Emulator steps a minimization candidate may take to halt.
const HALT_BUDGET: u64 = 400_000;

/// Does `config` still fail co-simulation on this program? One golden
/// walk, bounded by [`HALT_BUDGET`], is both the halt check and the
/// reference: a candidate that faults or does not halt within the
/// budget is not interesting. Runs on `core`, reset first, as the
/// oracle's runs do.
fn cosim_fails(core: &mut Core, program: &Program, config: ConfigId) -> bool {
    let memory = fuzz_memory(SECRET_A);
    Golden::walk_within(program, memory.clone(), HALT_BUDGET).is_ok_and(|golden| {
        SimBuilder::new()
            .scheme(config.scheme())
            .address_prediction(config.ap())
            .run_verified_on(core, &golden, program, memory, MAX_CYCLES)
            .is_err()
    })
}

/// Does `config` still distinguish the two secrets on this program?
/// Runs on `core`, reset before each run.
fn two_secret_fails(core: &mut Core, program: &Program, config: ConfigId) -> bool {
    let mut run = |secret: u8| observe(core, config, program, secret).ok();
    match (run(SECRET_A), run(SECRET_B)) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    }
}

struct CaseResult {
    has_gadget: bool,
    baseline_distinguished: bool,
    bugs: Vec<FoundBug>,
}

/// Runs the fuzzer. Deterministic for a given `(seed, iters)` pair;
/// worker count affects wall-clock only.
pub fn fuzz(opts: &FuzzOptions) -> FuzzSummary {
    let started = Instant::now();
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        opts.workers
    };
    let state = Mutex::new((FuzzSummary::default(), 0u64));
    run_pool(0..opts.iters, workers, workers * 2, |case: u64, _enq| {
        let result = run_case(opts, case);
        let mut guard = state.lock().unwrap_or_else(|e| e.into_inner());
        let (summary, done) = &mut *guard;
        summary.cases += 1;
        summary.gadget_cases += result.has_gadget as u64;
        summary.baseline_distinguished += result.baseline_distinguished as u64;
        summary.bugs.extend(result.bugs);
        *done += 1;
        if opts.progress_every > 0 && *done % opts.progress_every == 0 {
            log::info(
                "fuzz",
                "progress",
                &[
                    ("done", Json::uint(*done)),
                    ("iters", Json::uint(opts.iters)),
                    ("gadget", Json::uint(summary.gadget_cases)),
                    (
                        "baseline_distinguished",
                        Json::uint(summary.baseline_distinguished),
                    ),
                    ("bugs", Json::uint(summary.bugs.len() as u64)),
                ],
            );
        }
    });
    let mut summary = state.into_inner().unwrap_or_else(|e| e.into_inner()).0;
    summary.bugs.sort_by_key(|b| b.case);
    summary.elapsed = started.elapsed();
    summary
}

fn run_case(opts: &FuzzOptions, case: u64) -> CaseResult {
    let gen_seed = mix(opts.seed, case);
    let g = generate(gen_seed);
    let mut out = CaseResult {
        has_gadget: g.has_gadget,
        baseline_distinguished: false,
        bugs: Vec::new(),
    };

    // Oracle 1: co-simulation across the full matrix; the first
    // divergent configuration is minimized (one reproducer per case).
    if let Some(divergence) = check_cosim(&g.program) {
        let ops = g.ops();
        let config = divergence.config;
        let mut core = SimBuilder::new().build_core();
        let min_ops = minimize(&ops, &mut |p| cosim_fails(&mut core, p, config));
        out.bugs.push(report_bug(
            opts,
            case,
            gen_seed,
            OracleKind::CoSim,
            divergence,
            &ops,
            min_ops,
            false,
        ));
    }

    // Oracle 2: two-secret noninterference, gadget programs only
    // (programs that never read the secret region are vacuously
    // secret-independent).
    if g.has_gadget {
        match check_two_secret(&g.program) {
            Ok(ts) => {
                out.baseline_distinguished = ts.baseline_distinguished;
                if let Some(v) = ts.violations.into_iter().next() {
                    let ops = g.ops();
                    let config = v.config;
                    let mut core = SimBuilder::new().build_core();
                    let min_ops = minimize(&ops, &mut |p| {
                        halts(p, fuzz_memory(SECRET_A), HALT_BUDGET)
                            && halts(p, fuzz_memory(SECRET_B), HALT_BUDGET)
                            && two_secret_fails(&mut core, p, config)
                    });
                    out.bugs.push(report_bug(
                        opts,
                        case,
                        gen_seed,
                        OracleKind::TwoSecret,
                        v,
                        &ops,
                        min_ops,
                        true,
                    ));
                }
            }
            Err(e) => out.bugs.push(FoundBug {
                case,
                gen_seed,
                detail: format!("two-secret oracle run failed: {e}"),
                original_len: g.program.len(),
                minimized_len: g.program.len(),
                saved: None,
                postmortem: None,
            }),
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn report_bug(
    opts: &FuzzOptions,
    case: u64,
    gen_seed: u64,
    kind: OracleKind,
    divergence: Divergence,
    original: &[dgl_isa::Op],
    min_ops: Vec<dgl_isa::Op>,
    expect_baseline_leak: bool,
) -> FoundBug {
    let minimized_len = min_ops.len();
    let name = format!("{kind}_{:016x}_{case:04}", gen_seed);
    let detail = divergence.to_string();
    let mut postmortem = None;
    let saved = opts.corpus_dir.as_ref().and_then(|dir| {
        let program = Program::new(&name, min_ops).ok()?;
        let saved = save_entry(
            dir,
            &name,
            &program,
            &kind.to_string(),
            &format!(
                "seed={} case={case} config={}",
                opts.seed,
                divergence.config.label()
            ),
            expect_baseline_leak,
        )
        .ok()?;
        // Replay the minimized program on the divergent configuration
        // with the flight recorder attached, and pin the trace tail
        // next to the reproducer. The replay is best-effort: the run's
        // outcome doesn't matter, only the events it emits.
        let recorder = SharedFlightRecorder::new(256);
        let mut b = SimBuilder::new();
        b.scheme(divergence.config.scheme())
            .address_prediction(divergence.config.ap())
            .flight_recorder(recorder.clone());
        let _ = b.run_program(&program, fuzz_memory(SECRET_A), MAX_CYCLES);
        let stack = [
            "fuzz".to_owned(),
            format!("case-{case:04}"),
            format!("replay:{}", divergence.config.label()),
        ];
        let text = recorder.postmortem("fuzz_divergence", &detail, &stack);
        match write_postmortem(dir, &name, &text) {
            Ok(path) => postmortem = Some(path),
            Err(e) => log::warn(
                "fuzz",
                "post-mortem write failed",
                &[
                    ("bug", Json::str(name.clone())),
                    ("error", Json::str(e.to_string())),
                ],
            ),
        }
        Some(saved)
    });
    FoundBug {
        case,
        gen_seed,
        detail,
        original_len: original.len(),
        minimized_len,
        saved,
        postmortem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_mixing_is_stable_and_case_local() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }

    /// `r1 = n; do r1 -= step while r1 != 0; halt`: 2n + 2 steps when
    /// `step` is 1, and no halt when it is 0.
    fn countdown(n: i64, step: i32) -> Program {
        let r1 = dgl_isa::Reg::new(1);
        let mut b = dgl_isa::ProgramBuilder::new("countdown");
        b.imm(r1, n)
            .label("loop")
            .subi(r1, r1, step)
            .bne(r1, dgl_isa::Reg::ZERO, "loop")
            .halt();
        b.build().unwrap()
    }

    /// The co-simulation predicate as it was: a halt check, then a
    /// second walk of the golden model under the oracle's budget.
    fn two_walk_cosim_fails(core: &mut Core, program: &Program, config: ConfigId) -> bool {
        let memory = fuzz_memory(SECRET_A);
        halts(program, memory.clone(), HALT_BUDGET)
            && match Golden::walk(program, memory.clone(), MAX_CYCLES) {
                Ok(golden) => SimBuilder::new()
                    .scheme(config.scheme())
                    .address_prediction(config.ap())
                    .run_verified_on(core, &golden, program, memory, MAX_CYCLES)
                    .is_err(),
                Err(_) => true,
            }
    }

    #[test]
    fn one_bounded_walk_keeps_every_minimization_verdict() {
        let cases = [
            (countdown(1_000, 1), true),
            // 600 002 steps: past the halt budget, well within the
            // golden walk's own.
            (countdown(300_000, 1), false),
            (countdown(1, 0), false),
        ];
        let config = ConfigId::ALL[6];
        let mut core = SimBuilder::new().build_core();
        for (program, halts_in_budget) in &cases {
            let memory = fuzz_memory(SECRET_A);
            assert_eq!(
                halts(program, memory.clone(), HALT_BUDGET),
                *halts_in_budget
            );
            assert_eq!(
                Golden::walk_within(program, memory, HALT_BUDGET).is_ok(),
                *halts_in_budget
            );
            assert_eq!(
                cosim_fails(&mut core, program, config),
                two_walk_cosim_fails(&mut core, program, config)
            );
        }
        // The middle loop does halt, within the oracle's own budget.
        assert!(Golden::walk(&cases[1].0, fuzz_memory(SECRET_A), MAX_CYCLES).is_ok());
    }

    #[test]
    fn report_bug_pins_a_parseable_postmortem_next_to_the_reproducer() {
        let dir = std::env::temp_dir().join(format!("dgl-fuzz-pm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FuzzOptions {
            corpus_dir: Some(dir.clone()),
            ..Default::default()
        };
        let gen_seed = mix(1, 0);
        let g = generate(gen_seed);
        let ops = g.ops();
        let bug = report_bug(
            &opts,
            0,
            gen_seed,
            OracleKind::CoSim,
            Divergence {
                config: ConfigId::ALL[0],
                kind: OracleKind::CoSim,
                detail: "synthetic divergence (test)".into(),
            },
            &ops,
            ops.clone(),
            false,
        );
        assert!(bug.saved.is_some(), "reproducer saved");
        let pm = bug.postmortem.expect("post-mortem artifact written");
        assert!(pm.parent() == bug.saved.unwrap().parent(), "same directory");
        let text = std::fs::read_to_string(&pm).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).expect("header parses strictly");
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some("dgl-postmortem")
        );
        assert_eq!(
            header.get("reason").and_then(Json::as_str),
            Some("fuzz_divergence")
        );
        let stack = header.get("span_stack").and_then(Json::as_array).unwrap();
        assert!(stack.iter().any(|s| s.as_str() == Some("fuzz")));
        let retained = header
            .get("events_retained")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(retained > 0, "replay emitted a trace tail");
        let mut rest = 0u64;
        for line in lines {
            Json::parse(line).expect("event line parses strictly");
            rest += 1;
        }
        assert_eq!(rest, retained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_small_run_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            seed: 1,
            iters: 6,
            workers: 2,
            ..Default::default()
        };
        let a = fuzz(&opts);
        assert_eq!(a.cases, 6);
        assert!(
            a.bugs.is_empty(),
            "fuzzer found a divergence at HEAD: {}",
            a.bugs[0].detail
        );
        let b = fuzz(&opts);
        assert_eq!(a.gadget_cases, b.gadget_cases);
        assert_eq!(a.baseline_distinguished, b.baseline_distinguished);
    }
}
