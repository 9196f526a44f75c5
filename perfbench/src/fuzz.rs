//! `fuzz-oracle`: seeded fuzz cases through the co-simulation and
//! two-secret oracles over the eight configurations, on two workers.
//!
//! Each case does exactly the per-case work of `dgl_fuzz::fuzz` —
//! `generate`, `check_cosim`, and `check_two_secret` on gadget programs
//! — on the same `run_pool` with the same queue depth, but driven by
//! the benchmark so that each case is timed and checked on its own: a
//! co-simulation divergence or a protected-scheme noninterference
//! violation fails the case. Cases run in rounds, each on a pool of its
//! own, so that the host's speed can be probed between them.

use crate::layers::{config_index, registry, Layers};
use crate::math::{median, mix, Digest, Tally};
use crate::trace::self_seconds_by_name;
use crate::{calib, secs, timed, timed_setup, Args, EndToEnd, Outcome, MIN_SAMPLES, SETUP_REPEATS};
use dgl_fuzz::{
    check_cosim, check_two_secret, fuzz_memory, generate, MAX_CYCLES, SECRET_A, SECRET_B,
};
use dgl_isa::{Emulator, Program};
use dgl_sim::experiments::ConfigId;
use dgl_sim::serve::run_pool_indexed;
use dgl_sim::SimBuilder;
use dgl_stats::{Json, SpanCollector};
use std::sync::Mutex;
use std::time::Instant;

/// Oracle workers.
const WORKERS: usize = 2;
/// Queue depth (`dgl_fuzz::fuzz` uses twice the workers).
const QUEUE: usize = 2 * WORKERS;
/// Leading cases replayed for the normalized IPC and the digest.
const PROBE_CASES: u64 = 32;
/// Cases per throughput round.
const ROUND_CASES: usize = 100;
/// Seed of the warm-up cases.
const WARMUP_SEED: u64 = 0x5EED;
/// Emulator step budget of a generated program.
const HALT_BUDGET: u64 = 400_000;
/// Sensitivity of the pool's case throughput to the host's speed (see
/// `calib`): log-log slope of run medians against the reference slice
/// over eight runs on the tuning host, 0.99.
const HOST_SENSITIVITY: f64 = 1.0;

/// One checked case.
struct Case {
    case: u64,
    has_gadget: bool,
    distinguished: bool,
    ok: bool,
    queue_ms: f64,
    run_ms: f64,
    latency_ms: f64,
}

/// Runs one case; traced runs wrap each oracle call in a span on the
/// case's track.
fn run_case(seed: u64, case: u64, enqueued: Instant, spans: Option<&SpanCollector>) -> Case {
    let started = Instant::now();
    let track = case as u32;
    let span = |name: &str| spans.map(|s| s.begin(track, name));
    let mut whole = span("case");
    if let Some(g) = whole.as_mut() {
        g.detail(&format!("case-{case}"));
    }
    let g = {
        let _s = span("fuzz.generate");
        generate(mix(seed, case))
    };
    let cosim = {
        let _s = span("fuzz.cosim");
        check_cosim(&g.program)
    };
    if let Some(d) = &cosim {
        eprintln!("perfbench: case {case}: {d}");
    }
    let (mut ok, mut distinguished) = (cosim.is_none(), false);
    if g.has_gadget {
        let _s = span("fuzz.two_secret");
        match check_two_secret(&g.program) {
            Ok(out) => {
                distinguished = out.baseline_distinguished;
                for v in &out.violations {
                    eprintln!("perfbench: case {case}: {v}");
                }
                ok &= out.violations.is_empty();
            }
            Err(e) => {
                eprintln!("perfbench: case {case}: {e}");
                ok = false;
            }
        }
    }
    drop(whole);
    let done = Instant::now();
    Case {
        case,
        has_gadget: g.has_gadget,
        distinguished,
        ok,
        queue_ms: started.duration_since(enqueued).as_secs_f64() * 1e3,
        run_ms: done.duration_since(started).as_secs_f64() * 1e3,
        latency_ms: done.duration_since(enqueued).as_secs_f64() * 1e3,
    }
}

/// A round of cases on the pool, between two host-speed probes.
struct Round {
    /// Cases of the round, in case order.
    cases: Vec<Case>,
    /// Host seconds from the round's first hand-off to its last result.
    host_s: f64,
    /// Reference slice seconds, the mean of the probes around it.
    slice_s: f64,
}

/// Rounds of [`ROUND_CASES`] cases, each on a pool of its own, for
/// `seconds` and at least [`MIN_SAMPLES`] cases. The host's speed is
/// probed while the pool is idle between rounds.
fn pass(seed: u64, seconds: f64, spans: Option<&SpanCollector>) -> Vec<Round> {
    let start = Instant::now();
    let mut before = calib::probe();
    let mut out: Vec<Round> = Vec::new();
    let mut next = 0u64;
    while out.is_empty() || secs(start) < seconds || next < MIN_SAMPLES as u64 {
        let cases = Mutex::new(Vec::with_capacity(ROUND_CASES));
        let ids = next..next + ROUND_CASES as u64;
        let (_, host_s) = timed(|| {
            run_pool_indexed(ids, WORKERS, QUEUE, |_, case, enqueued| {
                let c = run_case(seed, case, enqueued, spans);
                cases
                    .lock()
                    .expect("no case panics holding the list")
                    .push(c);
            });
        });
        let after = calib::probe();
        let mut cases = cases.into_inner().expect("every worker has ended");
        cases.sort_by_key(|c| c.case);
        out.push(Round {
            cases,
            host_s,
            slice_s: (before + after) / 2.0,
        });
        before = after;
        next += ROUND_CASES as u64;
    }
    out
}

/// Instructions the golden model retires for `program` on the memory
/// image holding `secret` (`None` when it does not halt), and the
/// seconds `Emulator::run` took.
fn golden_insts(program: &Program, secret: u8) -> (Option<u64>, f64) {
    let mut emu = Emulator::new(program, fuzz_memory(secret));
    let (run, dt) = timed(|| emu.run(HALT_BUDGET));
    let insts = run.ok().filter(|r| r.halted).map(|r| r.instructions);
    (insts, dt)
}

/// Committed timing-core instructions of one case: eight co-simulated
/// runs, plus eight runs per secret for gadget programs. The program is
/// generated again from its seed rather than kept, so memory does not
/// grow with the number of cases.
fn case_insts(seed: u64, c: &Case, emu: &mut (f64, u64)) -> Option<u64> {
    let program = generate(mix(seed, c.case)).program;
    let (a, dt) = golden_insts(&program, SECRET_A);
    emu.0 += dt;
    let a = a?;
    emu.1 += a;
    let runs = ConfigId::ALL.len() as u64;
    if !c.has_gadget {
        return Some(runs * a);
    }
    let b = golden_insts(&program, SECRET_B).0?;
    Some(runs * (2 * a + b))
}

/// Replays the probe cases' programs on every configuration: the
/// normalized IPC and the digest, and in traced runs the profiled
/// pipeline, memory and stats layers.
fn probe(
    seed: u64,
    cases: &[Case],
    tally: &mut Tally,
    traced: Option<(&mut Layers, &SpanCollector)>,
) -> (Vec<f64>, u64) {
    let reg = registry();
    let mut traced = traced;
    let mut digest = Digest::default();
    let mut norm = Vec::new();
    for c in cases.iter().take(PROBE_CASES as usize) {
        digest.eat(&[
            u8::from(c.has_gadget),
            u8::from(c.distinguished),
            u8::from(c.ok),
        ]);
        let program = generate(mix(seed, c.case)).program;
        let golden = golden_insts(&program, SECRET_A).0;
        let mut ipc = [f64::NAN; 8];
        let mut ok = true;
        for config in ConfigId::ALL {
            let mut b = SimBuilder::new();
            b.scheme(config.scheme()).address_prediction(config.ap());
            let track = 2_000_000 + c.case as u32;
            let result = match traced.as_mut() {
                None => b.run_program(&program, fuzz_memory(SECRET_A), MAX_CYCLES),
                Some((layers, spans)) => {
                    b.profiling(reg.clone());
                    let mut g = spans.begin(track, "probe");
                    g.detail(&format!("case-{}/{}", c.case, config.label()));
                    let (core, build_s) = timed(|| {
                        let _s = spans.begin(track, "pipeline.build_core");
                        b.build_core()
                    });
                    let (r, run_s) = timed(|| {
                        let _s = spans.begin(track, "pipeline.run");
                        core.run(&program, fuzz_memory(SECRET_A), MAX_CYCLES)
                    });
                    layers.build_core_s += build_s;
                    layers.timing_s += build_s + run_s;
                    layers.config_s[config_index(config)] += build_s + run_s;
                    if let Ok(r) = &r {
                        layers.sim.add(r);
                        let (text, enc) = timed(|| {
                            let _s = spans.begin(track, "stats.json_encode");
                            r.metrics().to_json().to_string()
                        });
                        let (parsed, dec) = timed(|| {
                            let _s = spans.begin(track, "stats.json_parse");
                            Json::parse(&text)
                        });
                        layers.json_encode_s += enc;
                        layers.json_parse_s += dec;
                        ok &= parsed.is_ok_and(|doc| doc.to_string() == text);
                    }
                    r
                }
            };
            match result {
                Ok(r) if r.halted && Some(r.committed) == golden => {
                    ipc[config_index(config)] = r.ipc();
                    digest.eat(r.metrics().to_json().to_string().as_bytes());
                    if let Some(cpi) = &r.cpi {
                        digest.eat(cpi.to_json().to_string().as_bytes());
                    }
                }
                _ => ok = false,
            }
        }
        if !ok {
            eprintln!("perfbench: probe of case {} diverged", c.case);
            tally.fail_attempted(!c.ok);
        }
        let base = ipc[config_index(ConfigId::Baseline)];
        for config in [ConfigId::NdaAp, ConfigId::SttAp, ConfigId::DomAp] {
            norm.push(ipc[config_index(config)] / base);
        }
    }
    if let Some((layers, _)) = traced {
        layers.prof = Some(reg.snapshot());
    }
    (norm, digest.value())
}

/// One set-up: the probe programs generated and run to `halt` on the
/// emulator, and one warm-up case per worker, run in turn. The warm-up
/// seed is fixed, so set-up time does not depend on the programs `seed`
/// draws.
fn setup(seed: u64) -> Result<(), String> {
    for case in 0..PROBE_CASES {
        let g = generate(mix(seed, case));
        if golden_insts(&g.program, SECRET_A).0.is_none() {
            return Err(format!(
                "generated case {case} does not halt on the emulator"
            ));
        }
    }
    let warm: Vec<Case> = (0..WORKERS as u64)
        .map(|case| run_case(WARMUP_SEED, case, Instant::now(), None))
        .collect();
    if warm.iter().any(|c| !c.ok) {
        return Err("a warm-up case failed its oracles".into());
    }
    Ok(())
}

/// Measures one pass: rates, latencies, failures, golden instruction
/// counts.
fn measure(
    seed: u64,
    seconds: f64,
    spans: Option<&SpanCollector>,
    tally: &mut Tally,
    layers: &mut Layers,
) -> (Vec<Case>, EndToEnd) {
    let mut e2e = EndToEnd::default();
    let mut emu = (0.0, 0u64);
    let mut all = Vec::new();
    for round in pass(seed, seconds, spans) {
        let nominal = |dt| calib::nominal(dt, round.slice_s, HOST_SENSITIVITY);
        let mut insts = 0;
        for c in &round.cases {
            let n = case_insts(seed, c, &mut emu);
            tally.record(c.ok && n.is_some());
            insts += n.unwrap_or(0);
            let latency_s = c.latency_ms / 1e3;
            e2e.latencies_ms.push(nominal(latency_s) * 1e3);
            layers.queue_wait_ms.push(c.queue_ms);
            layers.run_ms.push(c.run_ms);
            layers.fuzz_cases += 1;
            layers.fuzz_gadgets += u64::from(c.has_gadget);
            layers.fuzz_distinguished += u64::from(c.distinguished);
        }
        e2e.round(
            round.cases.len(),
            insts,
            nominal(round.host_s),
            round.slice_s,
        );
        all.extend(round.cases);
    }
    layers.emu_s += emu.0;
    layers.emu_insts += emu.1;
    (all, e2e)
}

/// Runs `fuzz-oracle`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (r, _, nominal_s) = timed_setup(|| setup(args.seed));
        r?;
        setups_s.push(nominal_s);
    }
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let (cases, e2e) = if args.trace {
        let (_, reference) = measure(
            args.seed,
            args.seconds / 2.0,
            None,
            &mut tally,
            &mut Layers::default(),
        );
        let spans = SpanCollector::new();
        let mut layers = Layers::default();
        let (cases, traced) = measure(
            args.seed,
            args.seconds,
            Some(&spans),
            &mut tally,
            &mut layers,
        );
        layers.tracing_overhead_frac = 1.0 - traced.rate() / reference.rate();
        let recorded = spans.finish();
        let own = self_seconds_by_name(&recorded);
        let own = |name: &str| own.get(name).copied().unwrap_or(0.0);
        layers.fuzz_generate_s = own("fuzz.generate");
        layers.fuzz_cosim_s = own("fuzz.cosim");
        layers.fuzz_two_secret_s = own("fuzz.two_secret");
        layers.fuzz_case_s = recorded
            .iter()
            .filter(|s| s.name == "case")
            .map(|s| s.dur_us as f64 * 1e-6)
            .sum();
        let (norm, digest) = probe(args.seed, &cases, &mut tally, Some((&mut layers, &spans)));
        layers.setup_s = median(&setups_s);
        out.spans = spans.finish();
        out.layers = layers;
        out.digest = digest;
        let mut e2e = traced;
        e2e.norm_ipc = norm;
        (cases, e2e)
    } else {
        let (cases, mut e2e) = measure(
            args.seed,
            args.seconds,
            None,
            &mut tally,
            &mut Layers::default(),
        );
        let (norm, digest) = probe(args.seed, &cases, &mut tally, None);
        out.digest = digest;
        e2e.norm_ipc = norm;
        (cases, e2e)
    };
    let gadgets = cases.iter().filter(|c| c.has_gadget).count();
    let distinguished = cases.iter().filter(|c| c.distinguished).count();
    if gadgets > 0 && distinguished == 0 {
        // The vacuity check: an oracle the unsafe baseline never trips
        // is testing nothing.
        eprintln!("perfbench: the baseline distinguished none of {gadgets} gadget cases");
        tally.record(false);
    }
    out.e2e = e2e;
    out.e2e.setups_s = setups_s;
    out.tally = tally;
    Ok(out)
}
