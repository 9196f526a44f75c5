//! The simulator's benchmark: four seeded workloads run against the
//! public API of the workspace crates, every output checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` it carries the per-layer metrics, and the run's spans
//! are written to `perfbench/out/`. See `perfbench/README.md`.

mod calib;
mod detailed;
mod fuzz;
mod layers;
mod math;
mod serve;
mod trace;

use dgl_stats::{Json, SpanRecord};
use layers::Layers;
use math::{geomean, median, quantile, tail_percentile, Tally, MIN_BEYOND};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The default seed, used while developing a change.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed: a claim must also hold here.
pub const HOLDOUT_SEED: u64 = 7_777;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Latency samples a run collects at least, so p90 has ten beyond it.
pub const MIN_SAMPLES: usize = 100;
/// Where traced runs write their spans and every run its record.
const OUT_DIR: &str = "perfbench/out";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// L1/L2-resident kernels, detailed mode.
    DetailedIlp,
    /// DRAM-bound kernels, detailed mode.
    DetailedMemory,
    /// Sampled jobs through `dgl_sim::serve::serve_lines`.
    ServeSampled,
    /// Co-simulation and two-secret fuzz cases.
    FuzzOracle,
}

impl WorkloadName {
    const ALL: [WorkloadName; 4] = [
        WorkloadName::DetailedIlp,
        WorkloadName::DetailedMemory,
        WorkloadName::ServeSampled,
        WorkloadName::FuzzOracle,
    ];

    fn name(self) -> &'static str {
        match self {
            WorkloadName::DetailedIlp => "detailed-ilp",
            WorkloadName::DetailedMemory => "detailed-memory",
            WorkloadName::ServeSampled => "serve-sampled",
            WorkloadName::FuzzOracle => "fuzz-oracle",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WorkloadName::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{v}` (0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// End-to-end measurements of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Committed simulated instructions per host second, per round.
    pub kips_rounds: Vec<f64>,
    /// Units of work per second, per round.
    pub rate_rounds: Vec<f64>,
    /// Latency of each unit of work, in ms.
    pub latencies_ms: Vec<f64>,
    /// IPC(scheme + AP) / IPC(baseline) pairs' ratios.
    pub norm_ipc: Vec<f64>,
    /// Nominal seconds of each set-up.
    pub setups_s: Vec<f64>,
    /// Seconds of a reference slice during each round (the host speed).
    pub slices_s: Vec<f64>,
}

impl EndToEnd {
    /// Units per second (the median round), the traced-run reference.
    pub fn rate(&self) -> f64 {
        median(&self.rate_rounds)
    }

    /// Records a round: `units` of work that committed `insts`
    /// simulated instructions in `nominal_s` nominal seconds, while a
    /// reference slice took `slice_s`.
    pub fn round(&mut self, units: usize, insts: u64, nominal_s: f64, slice_s: f64) {
        self.rate_rounds.push(units as f64 / nominal_s);
        self.kips_rounds.push(insts as f64 / 1e3 / nominal_s);
        self.slices_s.push(slice_s);
    }

    fn metrics(&self, peak_rss_mb: f64) -> Result<Vec<Metric>, String> {
        let n = self.latencies_ms.len();
        if tail_percentile(n).is_none_or(|q| q < 0.9) {
            return Err(format!(
                "{n} latency samples leave fewer than {MIN_BEYOND} beyond p90"
            ));
        }
        let norm = geomean(&self.norm_ipc).ok_or("no finite normalized IPC")?;
        Ok(vec![
            Metric::new("sim_kips", median(&self.kips_rounds), "kinst/s"),
            Metric::new("work_per_s", self.rate(), "1/s"),
            Metric::new("latency_p50_ms", quantile(&self.latencies_ms, 0.5), "ms"),
            Metric::new("latency_p90_ms", quantile(&self.latencies_ms, 0.9), "ms"),
            Metric::new("norm_ipc_gmean", norm, "ratio"),
            Metric::new("setup_s", median(&self.setups_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ])
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed units.
    pub tally: Tally,
    /// End-to-end measurements (the untraced pass).
    pub e2e: EndToEnd,
    /// Per-layer measurements (traced runs only).
    pub layers: Layers,
    /// Digest over the simulated statistics of the fixed part of the
    /// inputs: identical across runs of one seed, traced or not.
    pub digest: u64,
    /// Spans of the traced pass.
    pub spans: Vec<SpanRecord>,
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Runs one set-up `f` between two host-speed probes and returns its
/// result with its host and its nominal seconds (at sensitivity 1).
pub fn timed_setup<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = calib::probe();
    let (out, dt) = timed(f);
    let after = calib::probe();
    (out, dt, calib::nominal(dt, (before + after) / 2.0, 1.0))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit and dirty-tree flag of the checkout, when it is a git tree
/// (git is not allowed to look above the current directory).
fn git_state() -> (String, Json) {
    let git = |args: &[&str]| {
        let cwd = std::env::current_dir().ok()?;
        let parent = cwd.parent()?.to_path_buf();
        Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", parent)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
            (sha, dirty)
        }
        None => ("unknown".to_owned(), Json::Null),
    }
}

fn provenance(args: &Args, digest: u64) -> Json {
    let (sha, dirty) = git_state();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::object()
        .field("schema", Json::str("perfbench-run"))
        .field("version", Json::uint(1))
        .field("workload", Json::str(args.workload.name()))
        .field("seed", Json::uint(args.seed))
        .field("default_seed", Json::uint(DEFAULT_SEED))
        .field("holdout_seed", Json::uint(HOLDOUT_SEED))
        .field("seconds", Json::num(args.seconds))
        .field("trace", Json::Bool(args.trace))
        .field("git_sha", Json::str(sha))
        .field("git_dirty", dirty)
        .field("nproc", Json::uint(nproc))
        .field("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION")))
        .field("sim_digest", Json::str(format!("{digest:016x}")))
}

/// Reads the metric names `BENCHMARK.json` promises for this mode.
fn declared_metrics(trace: bool) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json lacks `{key}`"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json `{key}` entry without a name"))
        })
        .collect()
}

/// Writes the number with every digit Rust's shortest round-trip
/// formatting gives it.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn result_line(tally: Tally, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    let declared = declared_metrics(args.trace)?;
    dgl_stats::log::set_min_level(dgl_stats::log::Level::Warn);
    let outcome = match args.workload {
        WorkloadName::DetailedIlp => detailed::run(detailed::Kind::Ilp, args)?,
        WorkloadName::DetailedMemory => detailed::run(detailed::Kind::Memory, args)?,
        WorkloadName::ServeSampled => serve::run(args)?,
        WorkloadName::FuzzOracle => fuzz::run(args)?,
    };
    let metrics = if args.trace {
        outcome.layers.metrics()
    } else {
        outcome.e2e.metrics(peak_rss_mb())?
    };
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    if names != declared {
        return Err(format!(
            "metrics {names:?} do not match BENCHMARK.json {declared:?}"
        ));
    }
    let correct = outcome.tally.failed == 0 && outcome.tally.attempted > 0;
    let mut record = provenance(args, outcome.digest)
        .field("correct", Json::Bool(correct))
        .field("attempted", Json::uint(outcome.tally.attempted))
        .field("failed", Json::uint(outcome.tally.failed))
        .field("error_rate", Json::num(outcome.tally.error_rate()))
        .field("nominal_slice_ms", Json::num(calib::NOMINAL_SLICE_S * 1e3));
    if !outcome.e2e.slices_s.is_empty() {
        let host = median(&outcome.e2e.slices_s) * 1e3;
        record = record.field("reference_slice_ms", Json::num(host));
    }
    let mut values = Json::object();
    for m in &metrics {
        values = values.field(&m.name, Json::num(m.value));
    }
    record = record.field("metrics", values);
    let mode = if args.trace { "trace" } else { "run" };
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-{mode}",
        args.workload.name(),
        args.seed
    );
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if args.trace {
        let spans = trace::to_json(&outcome.spans).to_string();
        std::fs::write(format!("{stem}.spans.json"), spans + "\n")
            .map_err(|e| format!("{stem}.spans.json: {e}"))?;
    }
    std::fs::write(format!("{stem}.json"), record.to_string_pretty() + "\n")
        .map_err(|e| format!("{stem}.json: {e}"))?;
    println!("{record}");
    Ok(result_line(outcome.tally, correct, &metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_taken_at_nominal_host_speed() {
        let mut e2e = EndToEnd::default();
        // Ten units, 5000 instructions, 2 s on a nominal host.
        e2e.round(10, 5_000, 2.0, calib::NOMINAL_SLICE_S);
        // The same work on a host half as fast.
        let slow = 2.0 * calib::NOMINAL_SLICE_S;
        e2e.round(10, 5_000, calib::nominal(4.0, slow, 1.0), slow);
        for r in 0..2 {
            assert!((e2e.rate_rounds[r] - 5.0).abs() < 1e-9);
            assert!((e2e.kips_rounds[r] - 2.5).abs() < 1e-9);
        }
        assert_eq!(
            e2e.slices_s,
            [calib::NOMINAL_SLICE_S, 2.0 * calib::NOMINAL_SLICE_S]
        );
    }
}
